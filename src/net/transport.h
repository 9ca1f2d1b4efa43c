// Transport selection for hostfile-based fabrics.
//
// A deployment picks its transport through the hostfile: each line is
// "<endpoint-id> <address>", where the address is either a Unix-domain
// socket path (starts with '/' or '.') or a TCP "host:port". All lines
// of one hostfile must use the same address family — daemons and
// clients sharing a hostfile must land on the same transport.
//
// make_fabric() (stream_fabric.h) sniffs the hostfile (or checks an
// explicit Transport against it) and constructs the one stream fabric
// for that family. Everything above the transport — the rpc::Engine,
// redial/eviction/FaultInjector machinery, trace-id propagation — is
// keyed off net::Fabric and works unchanged on both.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "net/address.h"

namespace gekko::net {

enum class Transport {
  autodetect,  // sniff from the hostfile's address syntax
  uds,         // Unix-domain socket paths
  tcp,         // TCP "host:port" addresses
};

/// "auto" | "uds" | "tcp" (what gkfsd's --transport flag accepts).
Result<Transport> parse_transport(std::string_view name);
[[nodiscard]] const char* transport_name(Transport t) noexcept;

/// True if `address` reads as "host:port" (a numeric port after the
/// last ':', no '/' anywhere) rather than a filesystem socket path.
[[nodiscard]] bool looks_like_tcp_address(std::string_view address);

/// Parse hostfile content into id -> address. Rejects ids that are
/// garbage, out of range, or inside the client id-space, and lines
/// without an address. Blank lines and '#' comments are skipped.
Result<std::map<EndpointId, std::string>> parse_hostfile(
    const std::string& content);

/// The address family of parsed hostfile entries: tcp when the first
/// address reads as host:port, uds otherwise. Fails with
/// invalid_argument, naming the address, when an entry belongs to the
/// other family or when `requested` (unless autodetect) contradicts
/// the hostfile.
Result<Transport> hostfile_transport(
    const std::map<EndpointId, std::string>& hosts, Transport requested);

struct MakeFabricOptions {
  /// Daemon role: serve on the hostfile entry for `self_id`.
  /// Client role (kInvalidEndpoint): connect-only.
  EndpointId self_id = kInvalidEndpoint;
  /// Upper bound for one wire frame, enforced on BOTH sides: the
  /// sender fails oversized frames with Errc::overflow before any
  /// bytes hit the wire (instead of silently killing the peer's
  /// connection), and the receiver drops connections that announce a
  /// larger frame. All processes sharing a hostfile must agree.
  std::uint32_t max_frame_bytes = 1u << 30;
  Transport transport = Transport::autodetect;
  /// Epoll event-loop threads multiplexing all connections (0 = 2).
  /// Two suffice for a node: a loop completes responses and queues
  /// requests on the engine's handler pool, where the RPC work runs.
  std::size_t event_loops = 0;
};

}  // namespace gekko::net
