#include "cluster/cluster.h"

#include "common/fileio.h"
#include "common/logging.h"

namespace gekko::cluster {

Result<std::unique_ptr<net::StreamFabric>> Cluster::make_daemon_fabric_(
    std::uint32_t daemon_id) {
  net::MakeFabricOptions fopts;
  fopts.self_id = daemon_id;
  return net::make_fabric(hostfile_, fopts);
}

Result<std::unique_ptr<Cluster>> Cluster::start(ClusterOptions options) {
  if (options.nodes == 0) {
    return Status{Errc::invalid_argument, "cluster needs at least one node"};
  }
  if (options.root.empty()) {
    return Status{Errc::invalid_argument, "cluster root directory required"};
  }
  std::unique_ptr<Cluster> c(new Cluster(std::move(options)));
  GEKKO_RETURN_IF_ERROR(io::ensure_dir(c->options_.root));

  // Hosted transports: write the hostfile first (the address is what
  // selects the transport from here on).
  if (c->options_.transport != ClusterTransport::loopback) {
    auto hostfile = net::StreamFabric::write_hostfile(
        c->options_.root / "net", c->options_.nodes,
        c->options_.transport == ClusterTransport::tcp ? net::Transport::tcp
                                                       : net::Transport::uds);
    if (!hostfile) return hostfile.status();
    c->hostfile_ = std::move(*hostfile);
  }

  const auto t0 = std::chrono::steady_clock::now();
  c->daemons_.resize(c->options_.nodes);
  c->daemon_fabrics_.resize(c->options_.nodes);
  for (std::uint32_t i = 0; i < c->options_.nodes; ++i) {
    const auto node_root =
        c->options_.root / ("node" + std::to_string(i));
    net::Fabric* fabric = &c->fabric_;
    if (c->options_.transport != ClusterTransport::loopback) {
      auto hosted = c->make_daemon_fabric_(i);
      if (!hosted) return hosted.status();
      c->daemon_fabrics_[i] = std::move(*hosted);
      fabric = c->daemon_fabrics_[i].get();
    }
    auto daemon = daemon::GekkoDaemon::start(*fabric, node_root,
                                             c->options_.daemon_options);
    if (!daemon) return daemon.status();
    c->daemons_[i] = std::move(*daemon);
  }
  c->bootstrap_time_ = std::chrono::steady_clock::now() - t0;
  GEKKO_INFO("cluster") << c->options_.nodes << " daemons up in "
                        << c->bootstrap_time_.count() / 1e6 << " ms";
  return c;
}

Cluster::~Cluster() {
  for (auto& d : daemons_) {
    if (d) d->shutdown();
  }
}

std::vector<net::EndpointId> Cluster::daemon_endpoints() const {
  std::vector<net::EndpointId> out;
  out.reserve(daemons_.size());
  for (const auto& d : daemons_) {
    out.push_back(d ? d->endpoint() : net::kInvalidEndpoint);
  }
  return out;
}

std::unique_ptr<fs::Mount> Cluster::mount(
    client::ClientOptions client_options) {
  client_options.chunk_size = options_.daemon_options.chunk_size;
  if (options_.transport == ClusterTransport::loopback) {
    return std::make_unique<fs::Mount>(fabric_, daemon_endpoints(),
                                       std::move(client_options));
  }
  auto client_fabric = net::make_fabric(hostfile_, {});
  if (!client_fabric) {
    GEKKO_ERROR("cluster") << "client fabric: "
                           << client_fabric.status().to_string();
    return nullptr;
  }
  client_fabrics_.push_back(std::move(*client_fabric));
  // Hosted daemons always answer on their hostfile ids 0..n-1, even
  // across restarts — address by id, not by live endpoint.
  std::vector<net::EndpointId> daemons(options_.nodes);
  for (std::uint32_t i = 0; i < options_.nodes; ++i) daemons[i] = i;
  return std::make_unique<fs::Mount>(*client_fabrics_.back(),
                                     std::move(daemons),
                                     std::move(client_options));
}

void Cluster::stop_daemon(std::uint32_t daemon_id) {
  if (daemon_id < daemons_.size() && daemons_[daemon_id]) {
    daemons_[daemon_id]->shutdown();
    daemons_[daemon_id].reset();
    if (daemon_id < daemon_fabrics_.size()) {
      // Release the listener (port / socket path) so a restart can
      // re-bind the same hostfile address.
      daemon_fabrics_[daemon_id].reset();
    }
  }
}

Status Cluster::restart_daemon(std::uint32_t daemon_id) {
  if (daemon_id >= daemons_.size()) return Errc::invalid_argument;
  if (daemons_[daemon_id]) stop_daemon(daemon_id);
  const auto node_root =
      options_.root / ("node" + std::to_string(daemon_id));
  net::Fabric* fabric = &fabric_;
  if (options_.transport != ClusterTransport::loopback) {
    auto hosted = make_daemon_fabric_(daemon_id);
    if (!hosted) return hosted.status();
    daemon_fabrics_[daemon_id] = std::move(*hosted);
    fabric = daemon_fabrics_[daemon_id].get();
  }
  auto daemon = daemon::GekkoDaemon::start(*fabric, node_root,
                                           options_.daemon_options);
  if (!daemon) return daemon.status();
  daemons_[daemon_id] = std::move(*daemon);
  return Status::ok();
}

}  // namespace gekko::cluster
