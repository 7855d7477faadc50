#include "src/obs/work.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "src/obs/telemetry.h"

namespace fms::obs {

WorkReport collect_work(const ProfileReport& profile) {
  // Per-op sums are commutative, so a name-keyed map makes the merge
  // independent of thread registration order and of zone paths.
  std::map<std::string, WorkRow> merged;
  for (const ZoneStats& z : profile.zones) {
    if (z.costed_calls == 0) continue;
    WorkRow& row = merged[z.name];
    row.op = z.name;
    row.calls += z.costed_calls;
    row.cost += z.cost;
    row.incl_ns += z.incl_ns;
  }
  WorkReport report;
  report.rows.reserve(merged.size());
  for (auto& [op, row] : merged) {
    report.total_calls += row.calls;
    report.total += row.cost;
    report.rows.push_back(std::move(row));
  }
  return report;
}

double arithmetic_intensity(const OpCost& cost) {
  const std::uint64_t bytes = cost.bytes_read + cost.bytes_written;
  if (bytes == 0) return 0.0;
  return static_cast<double>(cost.flops) / static_cast<double>(bytes);
}

std::string work_table(const WorkReport& report, std::size_t max_rows) {
  std::vector<const WorkRow*> rows;
  rows.reserve(report.rows.size());
  for (const WorkRow& row : report.rows) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(), [](const WorkRow* a, const WorkRow* b) {
    if (a->cost.flops != b->cost.flops) return a->cost.flops > b->cost.flops;
    return a->op < b->op;  // deterministic tie-break
  });
  if (rows.size() > max_rows) rows.resize(max_rows);

  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%14s %10s %12s %12s %6s %10s %8s  %s\n",
                "mflops", "calls", "read_kb", "write_kb", "ai", "ms", "gf/s",
                "op");
  out += line;
  for (const WorkRow* row : rows) {
    const double ns = static_cast<double>(row->incl_ns);
    const double flops = static_cast<double>(row->cost.flops);
    std::snprintf(line, sizeof(line),
                  "%14.3f %10llu %12.1f %12.1f %6.2f %10.3f %8.3f  %s\n",
                  flops / 1e6, static_cast<unsigned long long>(row->calls),
                  static_cast<double>(row->cost.bytes_read) / 1024.0,
                  static_cast<double>(row->cost.bytes_written) / 1024.0,
                  arithmetic_intensity(row->cost), ns / 1e6,
                  ns > 0.0 ? flops / ns : 0.0, row->op.c_str());
    out += line;
  }
  return out;
}

void emit_work_telemetry(const WorkReport& report) {
  if (!telemetry_enabled()) return;
  Telemetry& telemetry = Telemetry::instance();
  MetricsRegistry& registry = telemetry.registry();
  for (const WorkRow& row : report.rows) {
    TraceEvent event;
    event.type = "work";
    event.name = row.op;
    event.round = telemetry.round();
    event.fields.emplace_back("calls", static_cast<double>(row.calls));
    event.fields.emplace_back("flops", static_cast<double>(row.cost.flops));
    event.fields.emplace_back("bytes_read",
                              static_cast<double>(row.cost.bytes_read));
    event.fields.emplace_back("bytes_written",
                              static_cast<double>(row.cost.bytes_written));
    event.fields.emplace_back("elements",
                              static_cast<double>(row.cost.elements));
    telemetry.emit(std::move(event));

    registry.gauge("fms.work." + row.op + ".flops")
        .set(static_cast<double>(row.cost.flops));
    registry.gauge("fms.work." + row.op + ".bytes_read")
        .set(static_cast<double>(row.cost.bytes_read));
    registry.gauge("fms.work." + row.op + ".bytes_written")
        .set(static_cast<double>(row.cost.bytes_written));
    registry.gauge("fms.work." + row.op + ".elements")
        .set(static_cast<double>(row.cost.elements));
    registry.gauge("fms.work." + row.op + ".calls")
        .set(static_cast<double>(row.calls));
  }
}

// -----------------------------------------------------------------------
// Cost models. All counts follow the header's FLOP / compulsory-bytes
// conventions; every formula here is pinned by tests/test_work.cpp.

namespace {
constexpr std::uint64_t kF = 4;  // bytes per float element
}  // namespace

std::size_t ceil_log2(std::size_t n) {
  std::size_t bits = 0;
  std::size_t pow2 = 1;
  while (pow2 < n) {
    pow2 *= 2;
    ++bits;
  }
  return bits;
}

OpCost conv2d_fwd_cost(std::size_t n, std::size_t cin, std::size_t h,
                       std::size_t w, std::size_t cout, std::size_t kh,
                       std::size_t kw, std::size_t ho, std::size_t wo,
                       std::size_t groups) {
  const std::uint64_t out =
      static_cast<std::uint64_t>(n) * cout * ho * wo;
  const std::uint64_t cin_g = cin / (groups == 0 ? 1 : groups);
  const std::uint64_t macs = out * cin_g * kh * kw;
  const std::uint64_t xnumel = static_cast<std::uint64_t>(n) * cin * h * w;
  const std::uint64_t wnumel =
      static_cast<std::uint64_t>(cout) * cin_g * kh * kw;
  OpCost cost;
  cost.flops = 2 * macs;  // multiply + accumulate
  cost.bytes_read = kF * (xnumel + wnumel);
  cost.bytes_written = kF * out;
  cost.elements = out;
  return cost;
}

OpCost conv2d_bwd_cost(std::size_t n, std::size_t cin, std::size_t h,
                       std::size_t w, std::size_t cout, std::size_t kh,
                       std::size_t kw, std::size_t ho, std::size_t wo,
                       std::size_t groups) {
  const std::uint64_t out =
      static_cast<std::uint64_t>(n) * cout * ho * wo;
  const std::uint64_t cin_g = cin / (groups == 0 ? 1 : groups);
  const std::uint64_t macs = out * cin_g * kh * kw;
  const std::uint64_t xnumel = static_cast<std::uint64_t>(n) * cin * h * w;
  const std::uint64_t wnumel =
      static_cast<std::uint64_t>(cout) * cin_g * kh * kw;
  OpCost cost;
  cost.flops = 4 * macs;  // grad_x and grad_w are each a macs-sized GEMM
  cost.bytes_read = kF * (out + xnumel + wnumel);
  cost.bytes_written = kF * (xnumel + wnumel);
  cost.elements = xnumel + wnumel;
  return cost;
}

OpCost batchnorm_fwd_cost(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w, bool train) {
  const std::uint64_t numel = static_cast<std::uint64_t>(n) * c * h * w;
  const std::uint64_t ch = c;
  OpCost cost;
  if (train) {
    // mean pass (1/elem) + var pass (3/elem) + normalize (4/elem) and
    // per-channel: mean/var finalize, inv_std (div+sqrt+add), running
    // stats update (2 * (mul+mul+add)) ~= 10/channel.
    cost.flops = 8 * numel + 10 * ch;
    cost.bytes_read = kF * (numel + 4 * ch);  // x + gamma/beta/running*2
    cost.bytes_written = kF * (2 * numel + 2 * ch);  // y, xhat, running*2
  } else {
    // normalize with running stats: (x - mean) * inv_std * g + b, with
    // inv_std derived per channel (div+sqrt+add).
    cost.flops = 4 * numel + 3 * ch;
    cost.bytes_read = kF * (numel + 4 * ch);
    cost.bytes_written = kF * numel;
  }
  cost.elements = numel;
  return cost;
}

OpCost batchnorm_bwd_cost(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w) {
  const std::uint64_t numel = static_cast<std::uint64_t>(n) * c * h * w;
  OpCost cost;
  // pass 1: sum_gy + sum_gy_xhat (3/elem); pass 2: the gx formula
  // (5/elem); per channel: two means + two param-grad accumulates.
  cost.flops = 8 * numel + 4 * static_cast<std::uint64_t>(c);
  cost.bytes_read = kF * (2 * numel + 4 * static_cast<std::uint64_t>(c));
  cost.bytes_written = kF * (numel + 2 * static_cast<std::uint64_t>(c));
  cost.elements = numel;
  return cost;
}

OpCost relu_fwd_cost(std::size_t numel) {
  OpCost cost;
  cost.flops = numel;  // one compare-select per element
  cost.bytes_read = kF * static_cast<std::uint64_t>(numel);
  cost.bytes_written = kF * static_cast<std::uint64_t>(numel);
  cost.elements = numel;
  return cost;
}

OpCost relu_bwd_cost(std::size_t numel) {
  OpCost cost;
  cost.flops = numel;  // one select per element
  cost.bytes_read = 2 * kF * static_cast<std::uint64_t>(numel);  // gy + x
  cost.bytes_written = kF * static_cast<std::uint64_t>(numel);
  cost.elements = numel;
  return cost;
}

OpCost maxpool_fwd_cost(std::size_t numel_in, std::size_t out,
                        std::size_t k) {
  OpCost cost;
  cost.flops = static_cast<std::uint64_t>(out) * k * k;  // window compares
  cost.bytes_read = kF * static_cast<std::uint64_t>(numel_in);
  // y (4B floats) + argmax indices (8B each).
  cost.bytes_written = (kF + 8) * static_cast<std::uint64_t>(out);
  cost.elements = out;
  return cost;
}

OpCost maxpool_bwd_cost(std::size_t numel_in, std::size_t out) {
  OpCost cost;
  cost.flops = out;  // one scatter-add per output grad
  cost.bytes_read = (kF + 8) * static_cast<std::uint64_t>(out);
  cost.bytes_written = kF * static_cast<std::uint64_t>(numel_in);
  cost.elements = numel_in;
  return cost;
}

OpCost avgpool_fwd_cost(std::size_t numel_in, std::size_t out,
                        std::size_t k) {
  OpCost cost;
  cost.flops = static_cast<std::uint64_t>(out) * (k * k + 1);  // sum + div
  cost.bytes_read = kF * static_cast<std::uint64_t>(numel_in);
  cost.bytes_written = kF * static_cast<std::uint64_t>(out);
  cost.elements = out;
  return cost;
}

OpCost avgpool_bwd_cost(std::size_t numel_in, std::size_t out,
                        std::size_t k) {
  OpCost cost;
  cost.flops = static_cast<std::uint64_t>(out) * (k * k + 1);
  cost.bytes_read = kF * static_cast<std::uint64_t>(out);
  cost.bytes_written = kF * static_cast<std::uint64_t>(numel_in);
  cost.elements = numel_in;
  return cost;
}

OpCost global_avgpool_fwd_cost(std::size_t n, std::size_t c, std::size_t h,
                               std::size_t w) {
  const std::uint64_t numel = static_cast<std::uint64_t>(n) * c * h * w;
  const std::uint64_t nc = static_cast<std::uint64_t>(n) * c;
  OpCost cost;
  cost.flops = numel + nc;  // sum everything + one div per channel
  cost.bytes_read = kF * numel;
  cost.bytes_written = kF * nc;
  cost.elements = nc;
  return cost;
}

OpCost global_avgpool_bwd_cost(std::size_t n, std::size_t c, std::size_t h,
                               std::size_t w) {
  const std::uint64_t numel = static_cast<std::uint64_t>(n) * c * h * w;
  const std::uint64_t nc = static_cast<std::uint64_t>(n) * c;
  OpCost cost;
  cost.flops = nc;  // one scale per channel, broadcast
  cost.bytes_read = kF * nc;
  cost.bytes_written = kF * numel;
  cost.elements = numel;
  return cost;
}

OpCost matmul_cost(std::size_t m, std::size_t k, std::size_t n) {
  OpCost cost;
  cost.flops = 2ull * m * k * n;
  cost.bytes_read = kF * (static_cast<std::uint64_t>(m) * k +
                          static_cast<std::uint64_t>(k) * n);
  cost.bytes_written = kF * static_cast<std::uint64_t>(m) * n;
  cost.elements = static_cast<std::uint64_t>(m) * n;
  return cost;
}

OpCost linear_fwd_cost(std::size_t n_batch, std::size_t in,
                       std::size_t out) {
  OpCost cost;
  // GEMM + bias add.
  cost.flops = 2ull * n_batch * in * out + static_cast<std::uint64_t>(n_batch) * out;
  cost.bytes_read = kF * (static_cast<std::uint64_t>(n_batch) * in +
                          static_cast<std::uint64_t>(out) * in + out);
  cost.bytes_written = kF * static_cast<std::uint64_t>(n_batch) * out;
  cost.elements = static_cast<std::uint64_t>(n_batch) * out;
  return cost;
}

OpCost linear_bwd_cost(std::size_t n_batch, std::size_t in,
                       std::size_t out) {
  const std::uint64_t nio = static_cast<std::uint64_t>(n_batch) * in * out;
  const std::uint64_t wsz = static_cast<std::uint64_t>(out) * in;
  OpCost cost;
  // grad_w GEMM + grad_x GEMM + bias-grad reduce.
  cost.flops = 4 * nio + static_cast<std::uint64_t>(n_batch) * out;
  // gy + x + w, plus grad_w / grad_b read-modify-write.
  cost.bytes_read = kF * (static_cast<std::uint64_t>(n_batch) * out +
                          static_cast<std::uint64_t>(n_batch) * in + wsz +
                          wsz + out);
  cost.bytes_written =
      kF * (static_cast<std::uint64_t>(n_batch) * in + wsz + out);
  cost.elements = static_cast<std::uint64_t>(n_batch) * in + wsz + out;
  return cost;
}

OpCost axpy_cost(std::size_t numel) {
  OpCost cost;
  cost.flops = numel;
  cost.bytes_read = 2 * kF * static_cast<std::uint64_t>(numel);  // y rmw + x
  cost.bytes_written = kF * static_cast<std::uint64_t>(numel);
  cost.elements = numel;
  return cost;
}

namespace {
OpCost agg_base_cost(std::size_t m, std::size_t d) {
  OpCost cost;
  cost.bytes_read = kF * static_cast<std::uint64_t>(m) * d;
  cost.bytes_written = kF * static_cast<std::uint64_t>(d);
  cost.elements = d;
  return cost;
}
}  // namespace

OpCost agg_mean_cost(std::size_t m, std::size_t d) {
  OpCost cost = agg_base_cost(m, d);
  // per-coordinate sum + final scale.
  cost.flops = static_cast<std::uint64_t>(m) * d + d;
  return cost;
}

OpCost agg_clipped_mean_cost(std::size_t m, std::size_t d) {
  OpCost cost = agg_base_cost(m, d);
  // norm pass (2/elem: mul+add) + scaled sum (2/elem) + final scale.
  cost.flops = 4ull * m * d + d;
  return cost;
}

OpCost agg_coordinate_median_cost(std::size_t m, std::size_t d) {
  OpCost cost = agg_base_cost(m, d);
  // per-coordinate sort (m log m compares) + participation scale.
  cost.flops =
      static_cast<std::uint64_t>(d) * (m * ceil_log2(m) + 1);
  return cost;
}

OpCost agg_trimmed_mean_cost(std::size_t m, std::size_t d) {
  OpCost cost = agg_base_cost(m, d);
  // per-coordinate sort + trimmed sum + final scale.
  cost.flops =
      static_cast<std::uint64_t>(d) * (m * ceil_log2(m) + m + 1);
  return cost;
}

OpCost agg_krum_cost(std::size_t m, std::size_t d) {
  OpCost cost = agg_base_cost(m, d);
  // m(m-1)/2 pairwise squared distances (3/elem: sub, mul, add) + mean
  // of the keep set (bounded by m*d) + final scale.
  const std::uint64_t pairs =
      static_cast<std::uint64_t>(m) * (m > 0 ? m - 1 : 0) / 2;
  cost.flops = 3 * pairs * d + static_cast<std::uint64_t>(m) * d + d;
  return cost;
}

OpCost dc_compensate_cost(std::size_t dim) {
  OpCost cost;
  // h*h, lambda*, (fresh-stale), *, + per element.
  cost.flops = 5ull * dim;
  cost.bytes_read = 3 * kF * static_cast<std::uint64_t>(dim);
  cost.bytes_written = kF * static_cast<std::uint64_t>(dim);
  cost.elements = dim;
  return cost;
}

OpCost codec_cost(std::size_t payload_bytes) {
  OpCost cost;
  cost.bytes_read = payload_bytes;
  cost.bytes_written = payload_bytes;
  cost.elements = payload_bytes;
  return cost;
}

OpCost net_transmission_cost(std::size_t k) {
  OpCost cost;
  // avg + per-link divide + max + sum over k links.
  cost.flops = 4ull * k;
  // model_bytes, bandwidth_bps and assignment in; per-link latency out.
  cost.bytes_read =
      (sizeof(std::size_t) + sizeof(double) + sizeof(int)) * std::uint64_t{k};
  cost.bytes_written = sizeof(double) * std::uint64_t{k};
  cost.elements = k;
  return cost;
}

}  // namespace fms::obs
