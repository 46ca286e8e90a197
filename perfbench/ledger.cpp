#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

enum class SpanKind : std::uint8_t { kLayer, kStructural, kExcluded };

struct SpanName {
  const char* name;
  SpanKind kind;
};

constexpr SpanName kNames[kNameCount] = {
    {"pass", SpanKind::kStructural},
    {"campaign", SpanKind::kStructural},
    {"site", SpanKind::kStructural},
    {"web.setup", SpanKind::kLayer},
    {"web.generate_site", SpanKind::kLayer},
    {"dns.flush_cache", SpanKind::kLayer},
    {"browser.load", SpanKind::kLayer},
    {"netlog.stitch_site", SpanKind::kExcluded},
    {"har.export_site", SpanKind::kLayer},
    {"har.import_site", SpanKind::kLayer},
    {"core.prepare", SpanKind::kLayer},
    {"core.classify", SpanKind::kLayer},
    {"core.classify_replay", SpanKind::kLayer},
    {"core.add_site", SpanKind::kLayer},
    {"optimize.tally_add", SpanKind::kLayer},
    {"journal.fold", SpanKind::kLayer},
    {"output.write", SpanKind::kLayer},
    {"pool.collect_traces", SpanKind::kLayer},
    {"pool.replay_traces.worker", SpanKind::kLayer},
    {"pool.replay_traces.shared", SpanKind::kLayer},
    {"wait.campaigns", SpanKind::kExcluded},
};

}  // namespace

std::int32_t SpanBuffer::begin(Name name, std::uint64_t site) {
  Span span;
  span.name = name;
  span.site = site;
  span.parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  // Stamp last, so the bookkeeping above stays outside the span.
  spans_.back().start_ns = now_ns();
  return index;
}

void SpanBuffer::end(std::int32_t index) {
  const std::int64_t at = now_ns();
  spans_[static_cast<std::size_t>(index)].end_ns = at;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

Ledger build_ledger(const std::vector<const SpanBuffer*>& buffers) {
  Ledger ledger;
  std::int64_t roots_ns = 0;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.end_ns < span.start_ns || span.end_ns == 0) {
        throw std::runtime_error("ledger: span left open: " +
                                 std::string(kNames[span.name].name));
      }
      const std::int64_t duration = span.end_ns - span.start_ns;
      if (span.parent < 0) {
        roots_ns += duration;
        continue;
      }
      const Span& parent = spans[static_cast<std::size_t>(span.parent)];
      if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
        throw std::runtime_error("ledger: span escapes its parent: " +
                                 std::string(kNames[span.name].name));
      }
      if (kNames[parent.name].kind == SpanKind::kExcluded) {
        throw std::runtime_error("ledger: excluded span has children");
      }
      child_ns[static_cast<std::size_t>(span.parent)] += duration;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const std::int64_t duration = span.end_ns - span.start_ns;
      const std::int64_t self = duration - child_ns[i];
      const SpanName& name = kNames[span.name];
      if (span.name == kSite) ledger.site_ns.push_back(duration);
      if (span.name == kBrowserLoad) ledger.load_ns.push_back(duration);
      switch (name.kind) {
        case SpanKind::kStructural:
          ledger.unattributed_ns += self;
          break;
        case SpanKind::kExcluded:
          ledger.excluded_ns += duration;
          [[fallthrough]];
        case SpanKind::kLayer: {
          LayerTotals& totals = ledger.layers[name.name];
          totals.self_ns += self;
          ++totals.calls;
          break;
        }
      }
    }
  }
  ledger.total_ns = roots_ns - ledger.excluded_ns;
  return ledger;
}

std::int64_t percentile(std::vector<std::int64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tindex\tparent\tname\tsite\tstart_ns\tend_ns\n";
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<Span>& spans = buffers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      out << t << '\t' << i << '\t' << span.parent << '\t'
          << kNames[span.name].name << '\t' << span.site << '\t'
          << span.start_ns << '\t' << span.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
