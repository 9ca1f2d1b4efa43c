// Interactive GekkoFS shell: a tiny REPL over the public Mount API,
// useful for poking a deployment by hand.
//
//   $ ./examples/gkfs_shell [root-dir] [nodes]        # embedded daemons
//   $ ./examples/gkfs_shell --attach <hostfile>        # running gkfsd's
//   gkfs> put /etc/hostname /host
//   gkfs> ls /
//   gkfs> cat /host
//   gkfs> stat /host
//   gkfs> df
//
// Commands: ls [dir] | cat <f> | put <local> <gkfs> | get <gkfs> <local>
//           | write <f> <text> | stat <f> | rm <f> | mkdir <d>
//           | rmdir <d> | truncate <f> <size> | df | help | quit
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/units.h"
#include "net/stream_fabric.h"

using namespace gekko;

namespace {

void print_help() {
  std::printf(
      "commands:\n"
      "  ls [dir]            list directory (readdir broadcast)\n"
      "  cat <file>          print file contents\n"
      "  write <file> <txt>  write text to a file\n"
      "  put <local> <gkfs>  copy a local file into GekkoFS\n"
      "  get <gkfs> <local>  copy out of GekkoFS\n"
      "  stat <path>         show metadata\n"
      "  rm <file>           unlink\n"
      "  mkdir/rmdir <dir>   directories\n"
      "  truncate <f> <n>    set file size\n"
      "  df                  per-daemon statistics\n"
      "  quit\n");
}

Result<std::vector<std::uint8_t>> read_whole(fs::Mount& mnt,
                                             const std::string& path) {
  auto md = mnt.stat(path);
  if (!md) return md.status();
  std::vector<std::uint8_t> buf(md->size);
  auto fd = mnt.open(path, fs::rd_only);
  if (!fd) return fd.status();
  auto n = mnt.pread(*fd, buf, 0);
  (void)mnt.close(*fd);
  if (!n) return n.status();
  buf.resize(*n);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<net::StreamFabric> socket_fabric;
  std::unique_ptr<fs::Mount> mnt;

  if (argc > 2 && std::string(argv[1]) == "--attach") {
    // Attached mode: talk to running gkfsd processes over Unix
    // sockets or TCP, per the hostfile's addresses.
    auto fabric = net::make_fabric(argv[2], {});
    if (!fabric) {
      std::fprintf(stderr, "attach failed: %s\n",
                   fabric.status().to_string().c_str());
      return 1;
    }
    socket_fabric = std::move(*fabric);
    auto daemons = socket_fabric->daemon_ids();
    mnt = std::make_unique<fs::Mount>(*socket_fabric, daemons);
    std::printf("GekkoFS shell — attached to %zu gkfsd daemon(s) via %s\n",
                daemons.size(), argv[2]);
  } else {
    const std::filesystem::path root =
        argc > 1 ? std::filesystem::path(argv[1])
                 : std::filesystem::temp_directory_path() / "gkfs_shell";
    const std::uint32_t nodes =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 4;

    cluster::ClusterOptions opts;
    opts.nodes = nodes;
    opts.root = root;
    auto booted = cluster::Cluster::start(opts);
    if (!booted) {
      std::fprintf(stderr, "boot failed: %s\n",
                   booted.status().to_string().c_str());
      return 1;
    }
    cluster = std::move(*booted);
    mnt = cluster->mount();
    std::printf(
        "GekkoFS shell — %u daemons over %s (state persists there)\n",
        nodes, root.c_str());
  }
  print_help();

  std::string line;
  while (true) {
    std::printf("gkfs> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::istringstream iss(line);
    std::string cmd, a, b;
    iss >> cmd >> a;
    std::getline(iss, b);
    if (!b.empty() && b.front() == ' ') b.erase(0, 1);

    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      print_help();
      continue;
    }

    Status st = Status::ok();
    if (cmd == "ls") {
      auto entries = mnt->client().readdir(a.empty() ? "/" : a);
      if (!entries) {
        st = entries.status();
      } else {
        for (const auto& e : *entries) {
          std::printf("%s%s\n", e.name.c_str(),
                      e.type == proto::FileType::directory ? "/" : "");
        }
      }
    } else if (cmd == "cat") {
      auto data = read_whole(*mnt, a);
      if (!data) {
        st = data.status();
      } else {
        fwrite(data->data(), 1, data->size(), stdout);
        if (!data->empty() && data->back() != '\n') std::printf("\n");
      }
    } else if (cmd == "write") {
      auto fd = mnt->open(a, fs::create | fs::wr_only | fs::trunc);
      if (!fd) {
        st = fd.status();
      } else {
        std::vector<std::uint8_t> bytes(b.begin(), b.end());
        auto n = mnt->pwrite(*fd, bytes, 0);
        if (!n) st = n.status();
        (void)mnt->close(*fd);
      }
    } else if (cmd == "put") {
      std::ifstream in(a, std::ios::binary);
      if (!in) {
        std::printf("cannot read %s\n", a.c_str());
        continue;
      }
      std::vector<std::uint8_t> bytes(
          (std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>());
      auto fd = mnt->open(b, fs::create | fs::wr_only | fs::trunc);
      if (!fd) {
        st = fd.status();
      } else {
        auto n = mnt->pwrite(*fd, bytes, 0);
        if (!n) st = n.status();
        (void)mnt->close(*fd);
        std::printf("wrote %s\n", format_bytes(bytes.size()).c_str());
      }
    } else if (cmd == "get") {
      auto data = read_whole(*mnt, a);
      if (!data) {
        st = data.status();
      } else {
        std::ofstream out(b, std::ios::binary);
        out.write(reinterpret_cast<const char*>(data->data()),
                  static_cast<std::streamsize>(data->size()));
        std::printf("read %s\n", format_bytes(data->size()).c_str());
      }
    } else if (cmd == "stat") {
      auto md = mnt->stat(a);
      if (!md) {
        st = md.status();
      } else {
        std::printf("%s: %s, size=%s, mode=%o, mtime_ns=%lld\n", a.c_str(),
                    md->is_directory() ? "directory" : "regular file",
                    format_bytes(md->size).c_str(), md->mode,
                    static_cast<long long>(md->mtime_ns));
      }
    } else if (cmd == "rm") {
      st = mnt->unlink(a);
    } else if (cmd == "mkdir") {
      st = mnt->mkdir(a);
    } else if (cmd == "rmdir") {
      st = mnt->rmdir(a);
    } else if (cmd == "truncate") {
      st = mnt->truncate(a, std::strtoull(b.c_str(), nullptr, 10));
    } else if (cmd == "df") {
      auto stats = mnt->client().daemon_stats();
      if (!stats) {
        st = stats.status();
      } else {
        std::printf("%7s %10s %14s %14s\n", "daemon", "entries",
                    "bytes written", "bytes read");
        for (std::size_t d = 0; d < stats->size(); ++d) {
          std::printf("%7zu %10llu %14s %14s\n", d,
                      static_cast<unsigned long long>(
                          (*stats)[d].metadata_entries),
                      format_bytes((*stats)[d].bytes_written).c_str(),
                      format_bytes((*stats)[d].bytes_read).c_str());
        }
      }
    } else {
      std::printf("unknown command '%s' (try help)\n", cmd.c_str());
      continue;
    }
    if (!st.is_ok()) std::printf("error: %s\n", st.to_string().c_str());
  }
  return 0;
}
