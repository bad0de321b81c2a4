#include "yhccl/coll/trace.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "yhccl/common/error.hpp"
#include "yhccl/common/time.hpp"

namespace yhccl::coll {

double CollTrace::recorded_seconds() const noexcept {
  double t = 0;
  for (const auto& e : events_) t += e.seconds;
  return t;
}

std::string CollTrace::to_csv() const {
  std::string out = "kind,count,dtype,op,root,seconds\n";
  char line[160];
  for (const auto& e : events_) {
    std::snprintf(line, sizeof line, "%s,%zu,%s,%s,%d,%.9f\n",
                  coll_kind_name(e.kind), e.count,
                  std::string(dtype_name(e.dtype)).c_str(),
                  std::string(op_name(e.op)).c_str(), e.root, e.seconds);
    out += line;
  }
  return out;
}

namespace {

constexpr const char* kCsvHeader = "kind,count,dtype,op,root,seconds";

[[noreturn]] void raise_at(std::size_t line_no, const std::string& what) {
  raise("trace csv line " + std::to_string(line_no) + ": " + what);
}

CollKind parse_kind(std::size_t ln, const std::string& s) {
  if (const auto k = coll_kind_from_name(s)) return *k;
  raise_at(ln, "unknown collective kind '" + s + "'");
}

Datatype parse_dtype(std::size_t ln, const std::string& s) {
  for (Datatype d : {Datatype::u8, Datatype::i32, Datatype::i64,
                     Datatype::f32, Datatype::f64})
    if (s == dtype_name(d)) return d;
  raise_at(ln, "unknown dtype '" + s + "'");
}

ReduceOp parse_op(std::size_t ln, const std::string& s) {
  for (ReduceOp o : {ReduceOp::sum, ReduceOp::prod, ReduceOp::max,
                     ReduceOp::min, ReduceOp::band, ReduceOp::bor})
    if (s == op_name(o)) return o;
  raise_at(ln, "unknown op '" + s + "'");
}

/// Strict numeric field parsers: the whole field must be consumed, with no
/// overflow, so "12x", "", "1e99999" and "-3" (for counts) all fail loudly
/// instead of silently truncating the way std::sto* / istream>> would.
std::uint64_t parse_count(std::size_t ln, const std::string& s) {
  if (s.empty() || s[0] == '-' || s[0] == '+')
    raise_at(ln, "bad count '" + s + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size())
    raise_at(ln, "bad count '" + s + "'");
  return v;
}

int parse_root(std::size_t ln, const std::string& s) {
  if (s.empty()) raise_at(ln, "bad root ''");
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size())
    raise_at(ln, "bad root '" + s + "'");
  if (v < 0 || v >= rt::kMaxRanks)
    raise_at(ln, "root " + s + " out of range [0, " +
                     std::to_string(rt::kMaxRanks) + ")");
  return static_cast<int>(v);
}

double parse_seconds(std::size_t ln, const std::string& s) {
  if (s.empty()) raise_at(ln, "bad seconds ''");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size())
    raise_at(ln, "bad seconds '" + s + "'");
  if (!(v >= 0)) raise_at(ln, "negative or NaN seconds '" + s + "'");
  return v;
}

}  // namespace

CollTrace CollTrace::from_csv(const std::string& csv) {
  CollTrace t;
  std::istringstream in(csv);
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF
    if (!saw_header) {
      if (line != kCsvHeader)
        raise_at(line_no, "expected header '" + std::string(kCsvHeader) +
                              "', got '" + line + "'");
      saw_header = true;
      continue;
    }
    if (line.empty()) continue;
    std::vector<std::string> f;
    std::size_t start = 0;
    for (;;) {
      const std::size_t comma = line.find(',', start);
      f.push_back(line.substr(start, comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (f.size() != 6)
      raise_at(line_no, "expected 6 fields, got " + std::to_string(f.size()));
    TraceEvent e;
    e.kind = parse_kind(line_no, f[0]);
    e.count = parse_count(line_no, f[1]);
    e.dtype = parse_dtype(line_no, f[2]);
    e.op = parse_op(line_no, f[3]);
    e.root = parse_root(line_no, f[4]);
    e.seconds = parse_seconds(line_no, f[5]);
    t.record(e);
  }
  if (!saw_header) raise("trace csv: empty input (missing header)");
  return t;
}

void collective(CollTrace& trace, RankCtx& ctx, CollKind kind,
                const CollArgs& args, const CollOpts& opts) {
  const Timer timer;
  collective(ctx, kind, args, opts);
  trace.record({kind, args.count, args.dtype, args.op, args.root,
                timer.elapsed()});
}

ReplayResult replay(RankCtx& ctx, const CollTrace& trace,
                    const CollOpts& opts) {
  // Synthetic buffers sized for the largest event; thread-local so
  // repeated replays don't churn the allocator.
  thread_local std::vector<std::uint8_t> send_buf, recv_buf;
  std::size_t max_send = 64, max_recv = 64;
  const auto p = static_cast<std::size_t>(ctx.nranks());
  for (const auto& e : trace.events()) {
    const std::size_t bytes = e.count * dtype_size(e.dtype);
    max_send = std::max(
        max_send, e.kind == CollKind::reduce_scatter ? bytes * p : bytes);
    max_recv =
        std::max(max_recv, e.kind == CollKind::allgather ? bytes * p : bytes);
  }
  if (send_buf.size() < max_send) send_buf.assign(max_send, 1);
  if (recv_buf.size() < max_recv) recv_buf.assign(max_recv, 0);

  ReplayResult r;
  const Timer timer;
  for (const auto& e : trace.events()) {
    collective(ctx, e.kind,
               {send_buf.data(), recv_buf.data(), e.count, e.dtype, e.op,
                e.root},
               opts);
    ++r.events;
    r.payload_bytes += e.count * dtype_size(e.dtype);
  }
  r.seconds = timer.elapsed();
  return r;
}

}  // namespace yhccl::coll
