#include "fault/fault.hpp"

#include <cctype>
#include <chrono>
#include <sstream>
#include <thread>

namespace pclass::fault {

namespace {

constexpr usize kNone = static_cast<usize>(-1);

/// Parse a base-10 u64 out of `text`; the whole string must be digits.
u64 parse_u64(const std::string& text, const std::string& ctx) {
  if (text.empty()) throw ParseError("fault plan: missing number in '" + ctx + "'");
  u64 value = 0;
  for (char c : text) {
    if (c < '0' || c > '9')
      throw ParseError("fault plan: bad number '" + text + "' in '" + ctx + "'");
    value = value * 10 + static_cast<u64>(c - '0');
  }
  return value;
}

/// Strip `prefix` (e.g. "w=") off `text` or throw.
std::string expect_prefix(const std::string& text, std::string_view prefix,
                          const std::string& ctx) {
  if (text.size() < prefix.size() || text.compare(0, prefix.size(), prefix) != 0)
    throw ParseError("fault plan: expected '" + std::string(prefix) + "...' in '" +
                     ctx + "'");
  return text.substr(prefix.size());
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

FaultEvent parse_event(const std::string& token) {
  const std::vector<std::string> parts = split(token, ':');
  FaultEvent ev;
  if (parts[0] == "throw" || parts[0] == "stall") {
    ev.kind = parts[0] == "throw" ? FaultKind::kWorkerThrow : FaultKind::kWorkerStall;
    const usize want = ev.kind == FaultKind::kWorkerStall ? 3u : 2u;
    if (parts.size() != want)
      throw ParseError("fault plan: '" + token + "' needs " +
                       std::string(ev.kind == FaultKind::kWorkerStall
                                       ? "stall:w=<worker>@<sweep>:ms=<duration>"
                                       : "throw:w=<worker>@<sweep>"));
    const std::vector<std::string> at = split(expect_prefix(parts[1], "w=", token), '@');
    if (at.size() != 2)
      throw ParseError("fault plan: expected 'w=<worker>@<sweep>' in '" + token + "'");
    ev.worker = static_cast<usize>(parse_u64(at[0], token));
    ev.at = parse_u64(at[1], token);
    if (ev.kind == FaultKind::kWorkerStall)
      ev.stall_ms = parse_u64(expect_prefix(parts[2], "ms=", token), token);
  } else if (parts[0] == "pubfail") {
    if (parts.size() != 2)
      throw ParseError("fault plan: '" + token + "' needs pubfail:u=<apply-index>");
    ev.kind = FaultKind::kPublishFail;
    ev.at = parse_u64(expect_prefix(parts[1], "u=", token), token);
  } else if (parts[0] == "conndrop") {
    if (parts.size() != 2)
      throw ParseError("fault plan: '" + token + "' needs conndrop:r=<request-index>");
    ev.kind = FaultKind::kConnDrop;
    ev.at = parse_u64(expect_prefix(parts[1], "r=", token), token);
  } else {
    throw ParseError("fault plan: unknown event '" + parts[0] + "' in '" + token +
                     "' (want throw|stall|pubfail|conndrop)");
  }
  return ev;
}

}  // namespace

std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kWorkerThrow: return "throw";
    case FaultKind::kWorkerStall: return "stall";
    case FaultKind::kPublishFail: return "pubfail";
    case FaultKind::kConnDrop: return "conndrop";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case FaultKind::kWorkerThrow:
      os << "throw:w=" << worker << '@' << at;
      break;
    case FaultKind::kWorkerStall:
      os << "stall:w=" << worker << '@' << at << ":ms=" << stall_ms;
      break;
    case FaultKind::kPublishFail:
      os << "pubfail:u=" << at;
      break;
    case FaultKind::kConnDrop:
      os << "conndrop:r=" << at;
      break;
  }
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& token : split(spec, ',')) {
    if (token.empty()) continue;  // tolerate stray/trailing commas
    plan.events.push_back(parse_event(token));
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultEvent& ev : events) {
    if (!out.empty()) out += ',';
    out += ev.to_string();
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      pending_(plan_.events.size()),
      fired_(plan_.events.size(), false) {}

template <typename Pred>
usize FaultInjector::claim(Pred&& pred) {
  // Caller holds mu_.
  for (usize i = 0; i < plan_.events.size(); ++i) {
    if (fired_[i]) continue;
    if (!pred(plan_.events[i])) continue;
    fired_[i] = true;
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return i;
  }
  return kNone;
}

void FaultInjector::on_worker_batch(usize worker, u64 sweep) {
  if (pending_.load(std::memory_order_relaxed) == 0) return;
  u64 stall_ms = 0;
  bool do_throw = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const usize stall = claim([&](const FaultEvent& ev) {
      return ev.kind == FaultKind::kWorkerStall && ev.worker == worker &&
             sweep >= ev.at;
    });
    if (stall != kNone) {
      stall_ms = plan_.events[stall].stall_ms;
      ++counters_.worker_stalls;
    }
    const usize thr = claim([&](const FaultEvent& ev) {
      return ev.kind == FaultKind::kWorkerThrow && ev.worker == worker &&
             sweep >= ev.at;
    });
    if (thr != kNone) {
      do_throw = true;
      ++counters_.worker_throws;
    }
  }
  if (stall_ms > 0) {
    // Abort-aware stall: 1 ms slices so an engine stop (drain/shutdown)
    // issued mid-stall is honoured within the watchdog deadline. The
    // slices are counted, not timed against the wall clock: a pause of
    // the whole process (a sanitizer's stop-the-world, a debugger) then
    // swallows one slice instead of the stall the watchdog must see.
    for (u64 slept = 0; slept < stall_ms; ++slept) {
      if (abort_ != nullptr && abort_->load(std::memory_order_relaxed)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (do_throw)
    throw InjectedFault("injected fault: worker " + std::to_string(worker) +
                        " throw at sweep " + std::to_string(sweep));
}

void FaultInjector::on_publisher_apply() {
  const u64 index = applies_.fetch_add(1, std::memory_order_relaxed);
  if (pending_.load(std::memory_order_relaxed) == 0) return;
  bool do_throw = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const usize hit = claim([&](const FaultEvent& ev) {
      return ev.kind == FaultKind::kPublishFail && ev.at == index;
    });
    if (hit != kNone) {
      do_throw = true;
      ++counters_.publish_failures;
    }
  }
  if (do_throw)
    throw InjectedFault("injected fault: publisher apply " +
                        std::to_string(index) + " failed");
}

bool FaultInjector::should_drop_request(u64 request_index) {
  if (pending_.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lk(mu_);
  const usize hit = claim([&](const FaultEvent& ev) {
    return ev.kind == FaultKind::kConnDrop && ev.at == request_index;
  });
  if (hit == kNone) return false;
  ++counters_.conn_drops;
  return true;
}

FaultCounters FaultInjector::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

}  // namespace pclass::fault
