#include "dataplane/elements.hpp"

#include <algorithm>

#include "sdn/flow_mod.hpp"

namespace pclass::dataplane {

// ---- TrafficPool ----------------------------------------------------------

TrafficPool TrafficPool::from_trace(const net::Trace& trace,
                                    bool materialize_packets) {
  TrafficPool pool;
  for (const auto& e : trace) {
    if (materialize_packets) {
      pool.add(net::make_packet(e.header));
    } else {
      pool.add(e.header);
    }
  }
  return pool;
}

usize TrafficPool::fill(net::PacketBatch& batch, bool loop) {
  const usize total = size();
  if (total == 0 || batch.full()) return 0;
  const usize want = batch.capacity() - batch.size();
  const u64 start = cursor_.fetch_add(want, std::memory_order_relaxed);
  usize added = want;
  if (!loop) {
    if (start >= total) return 0;
    added = static_cast<usize>(std::min<u64>(want, total - start));
  }
  // One modulo per batch; each step wraps with a compare.
  usize idx = static_cast<usize>(start % total);
  for (usize k = 0; k < added; ++k) {
    if (packets_.empty()) {
      batch.push(tuples_[idx]);
    } else {
      batch.push(&packets_[idx]);
    }
    if (++idx == total) idx = 0;
  }
  return added;
}

// ---- Parser ---------------------------------------------------------------

void Parser::push_batch(net::PacketBatch& batch) {
  for (usize i = 0; i < batch.size(); ++i) {
    net::PacketMeta& m = batch.meta(i);
    if (m.tuple) continue;  // pre-parsed entry
    const net::Packet* p = batch.packet(i);
    const std::optional<net::FiveTuple> t =
        p == nullptr ? std::nullopt
                     : net::parse_five_tuple(p->bytes);
    if (t) {
      m.tuple = t;
      ++parsed_;
    } else {
      // Pre-classifier drop path: one cycle in the parser stage,
      // mirroring classify_packet()'s non-IPv4 handling.
      m.parse_error = true;
      m.resolved = true;
      m.lookup_cycles += 1;
      ++errors_;
    }
  }
  if (tel_ != nullptr) fill_counters(tel_->live);
}

// ---- FlowCacheElement -----------------------------------------------------

void FlowCacheElement::catch_up(const RuleProgram& snap) {
  const auto updates = snap.updates_since(seen_version_);
  seen_version_ = snap.version();
  if (!updates) {
    cache_.invalidate_all();
  } else {
    for (const sdn::Message& msg : *updates) {
      const auto* fm = std::get_if<sdn::FlowMod>(&msg);
      if (fm == nullptr) {  // ConfigMod: a backend switch, flush
        cache_.invalidate_all();
        break;
      }
      if (fm->command == sdn::FlowMod::Command::kAdd) {
        ruleset::Rule r = fm->match;
        r.id = fm->cookie;  // as sdn::apply_message installs it
        cache_.invalidate_matching(r);
      } else {
        cache_.invalidate_rule(fm->cookie);
      }
    }
  }
  if (tel_ != nullptr) fill_counters(tel_->live);
}

void FlowCacheElement::push_batch(net::PacketBatch& batch) {
  snap_ = programs_->acquire();
  if (snap_->version() != seen_version_) catch_up(*snap_);
  for (usize i = 0; i < batch.size(); ++i) {
    net::PacketMeta& m = batch.meta(i);
    if (m.resolved || !m.tuple) continue;
    hw::CycleRecorder rec;
    const auto cached = cache_.lookup(*m.tuple, &rec);
    m.lookup_cycles += rec.cycles();
    if (!cached) continue;  // miss: the classifier resolves it
    m.resolved = true;
    m.from_cache = true;
    if (*cached) {
      const core::RuleEntry& e = **cached;
      m.matched = true;
      m.rule = e.rule;
      m.priority = e.priority;
      m.action_token = e.action;
    }
  }
  if (tel_ != nullptr) fill_counters(tel_->live);
}

// ---- ClassifierElement ----------------------------------------------------

void ClassifierElement::push_batch(net::PacketBatch& batch) {
  // Clock reads only when telemetry is attached: the off configuration
  // (the overhead-gate baseline) pays nothing but this branch.
  const u64 t_start = tel_ != nullptr ? telemetry::steady_now_ns() : 0;
  const std::shared_ptr<const RuleProgram> snap =
      cache_ != nullptr ? cache_->take_snapshot() : programs_->acquire();
  const u64 v = snap->version();
  batch.rule_version = v;
  const bool version_advanced = seen_any_ && v > max_version_;
  if (seen_any_ && v < max_version_) {
    monotonic_ = false;
  }
  seen_any_ = true;
  min_version_ = std::min(min_version_, v);
  max_version_ = std::max(max_version_, v);

  const core::ConfigurableClassifier& clf = snap->classifier();
  u32 lookups = 0;
  for (usize i = 0; i < batch.size(); ++i) {
    net::PacketMeta& m = batch.meta(i);
    if (m.resolved || !m.tuple) continue;
    const core::ClassifyResult r = clf.classify(*m.tuple);
    ++lookups;
    m.resolved = true;
    m.lookup_cycles += r.cycles;
    m.memory_accesses += r.memory_accesses;
    if (r.match) {
      m.matched = true;
      m.rule = r.match->rule;
      m.priority = r.match->priority;
      m.action_token = r.match->action;
    }
    if (cache_ != nullptr) cache_->fill(*m.tuple, r.match);
  }
  lookups_ += lookups;
  if (lookups > 0) ++batches_;
  if (tel_ != nullptr) {
    publish_telemetry(batch, v, t_start, version_advanced, lookups);
  }
}

void ClassifierElement::publish_telemetry(const net::PacketBatch& batch,
                                          u64 version, u64 t_start_ns,
                                          bool version_advanced,
                                          u32 lookups) {
  const u64 t_end = telemetry::steady_now_ns();

  // Update visibility: the first batch after the published version
  // moved past everything this worker had seen. The publisher stamped
  // the version just before its swap; observe - publish is the
  // end-to-end latency of the update becoming effective here. Without
  // a cache, t_start was read before acquire(), so clamp the (rare) case
  // of the clock read racing the publish.
  if (version_advanced) {
    if (const std::optional<u64> t_pub =
            programs_->publish_clock().lookup(version)) {
      const u64 lat = t_start_ns > *t_pub ? t_start_ns - *t_pub : 0;
      ++vis_samples_;
      vis_total_ns_ += lat;
      vis_max_ns_ = std::max(vis_max_ns_, lat);
    }
  }

  // Publish the running totals (totals, not deltas: the sampler's
  // interval differences then sum exactly to the end-of-run report).
  fill_counters(tel_->live);

  // One span event per batch into the SPSC ring.
  telemetry::TraceEvent ev;
  ev.t_start_ns = t_start_ns;
  ev.duration_ns = t_end > t_start_ns ? t_end - t_start_ns : 0;
  ev.worker = tel_->worker;
  ev.packets = static_cast<u32>(batch.size());
  ev.lookups = lookups;
  ev.snapshot_version = version;
  tel_->ring.push(ev);
}

// ---- ActionSink -----------------------------------------------------------

void ActionSink::push_batch(net::PacketBatch& batch) {
  ++batches_;
  for (usize i = 0; i < batch.size(); ++i) {
    const net::PacketMeta& m = batch.meta(i);
    ++packets_;
    latency_.record(m.lookup_cycles);
    if (tel_ != nullptr) tel_->live.latency.record(m.lookup_cycles);
    memory_accesses_ += m.memory_accesses;
    if (capture_ != nullptr) {
      CapturedVerdict cv;
      if (m.tuple) cv.tuple = *m.tuple;
      cv.parse_error = m.parse_error;
      if (m.matched) cv.match = core::RuleEntry{m.rule, m.priority,
                                                m.action_token};
      cv.version = batch.rule_version;
      cv.cycles = m.lookup_cycles;
      cv.memory_accesses = m.memory_accesses;
      capture_->push_back(cv);
    }
    if (!m.matched) {
      ++dropped_;  // parse error or table miss: default drop
      continue;
    }
    ++matched_;
    if (sdn::ActionSpec::decode(m.action_token).kind ==
        sdn::ActionSpec::Kind::kDrop) {
      ++dropped_;
    }
  }
  if (tel_ != nullptr) fill_counters(tel_->live);
}

// ---- the chain ------------------------------------------------------------

bool push_chain(net::PacketBatch& batch, PacketSource* source,
                Parser& parser, FlowCacheElement* cache,
                ClassifierElement& classifier, ActionSink& sink) {
  if (source != nullptr && !source->push_batch(batch)) return false;
  parser.push_batch(batch);
  if (cache != nullptr) cache->push_batch(batch);
  classifier.push_batch(batch);
  sink.push_batch(batch);
  return true;
}

}  // namespace pclass::dataplane
