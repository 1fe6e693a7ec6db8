#include "dataplane/flow_steer.hpp"

#include "net/packet.hpp"

namespace pclass::dataplane {

std::vector<TrafficPool> steer_split(const TrafficPool& pool, usize nshards) {
  if (nshards == 0) {
    throw ConfigError("steer_split: shard count must be >= 1");
  }
  std::vector<TrafficPool> out(nshards);
  if (!pool.tuples().empty()) {
    for (const net::FiveTuple& t : pool.tuples()) {
      out[shard_of(t, nshards)].add(t);
    }
    return out;
  }
  usize rr = 0;
  for (const net::Packet& p : pool.packets()) {
    const std::optional<net::FiveTuple> t = net::parse_five_tuple(p.bytes);
    const usize s = t ? shard_of(*t, nshards) : (rr++ % nshards);
    out[s].add(p);
  }
  return out;
}

}  // namespace pclass::dataplane
