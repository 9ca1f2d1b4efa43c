#include "net/transport.h"

#include <charconv>

namespace gekko::net {

Result<Transport> parse_transport(std::string_view name) {
  if (name == "auto") return Transport::autodetect;
  if (name == "uds") return Transport::uds;
  if (name == "tcp") return Transport::tcp;
  return Status{Errc::invalid_argument,
                "unknown transport (want auto|uds|tcp): " + std::string(name)};
}

const char* transport_name(Transport t) noexcept {
  switch (t) {
    case Transport::autodetect:
      return "auto";
    case Transport::uds:
      return "uds";
    case Transport::tcp:
      return "tcp";
  }
  return "?";
}

bool looks_like_tcp_address(std::string_view address) {
  if (address.find('/') != std::string_view::npos) return false;
  const auto colon = address.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return false;
  }
  const std::string_view port = address.substr(colon + 1);
  std::uint16_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(port.data(), port.data() + port.size(), value);
  return ec == std::errc{} && ptr == port.data() + port.size();
}

Result<std::map<EndpointId, std::string>> parse_hostfile(
    const std::string& content) {
  std::map<EndpointId, std::string> hosts;
  std::size_t pos = 0;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos) {
      return Status{Errc::invalid_argument, "bad hostfile line: " + line};
    }
    // from_chars, not stoul: a Result-returning factory must not throw
    // on garbage or out-of-range ids.
    EndpointId id = 0;
    const char* first = line.data();
    const char* last = first + space;
    const auto [ptr, ec] = std::from_chars(first, last, id);
    if (ec != std::errc() || ptr != last) {
      return Status{Errc::invalid_argument, "bad hostfile id: " + line};
    }
    if (id >= kClientEndpointBase) {
      return Status{Errc::invalid_argument,
                    "hostfile id in client id-space: " + line};
    }
    hosts[id] = line.substr(space + 1);
  }
  if (hosts.empty()) {
    return Status{Errc::invalid_argument, "empty hostfile"};
  }
  return hosts;
}

Result<Transport> hostfile_transport(
    const std::map<EndpointId, std::string>& hosts, Transport requested) {
  if (hosts.empty()) return Status{Errc::invalid_argument, "empty hostfile"};
  const bool tcp = looks_like_tcp_address(hosts.begin()->second);
  // One family per hostfile: a stray line of the other family would
  // otherwise fail only at its first dial, with a confusing error.
  for (const auto& [id, address] : hosts) {
    if (looks_like_tcp_address(address) != tcp) {
      return Status{Errc::invalid_argument,
                    "hostfile mixes socket paths and host:port: " + address};
    }
  }
  const Transport family = tcp ? Transport::tcp : Transport::uds;
  if (requested == Transport::autodetect || requested == family) return family;
  const std::string& address = hosts.begin()->second;
  return Status{Errc::invalid_argument,
                tcp ? "hostfile address is not a socket path: " + address
                    : "hostfile address is not host:port: " + address};
}

}  // namespace gekko::net
