#include "journal/campaign.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/classify.hpp"
#include "journal/checkpoint.hpp"
#include "journal/journal.hpp"

namespace h2r::journal {

namespace {

/// The first journal-append error across every campaign's workers.
/// Workers keep crawling after it (results stay correct); run_campaigns
/// rethrows it once the campaigns have joined, so the run still fails
/// loudly.
struct FirstError {
  std::mutex mutex;  // guards: error
  std::exception_ptr error;

  void capture(std::string message) {
    std::lock_guard<std::mutex> lock(mutex);
    if (error == nullptr) {
      error = std::make_exception_ptr(std::runtime_error(std::move(message)));
    }
  }
};

/// What the journal held for one campaign (its windows went to the fold).
struct Recovered {
  std::vector<char> covered;  // per relative index in [0, count)
  std::uint64_t chunks = 0;
  std::uint64_t sites = 0;
};

/// Throws unless a chunk's named `kind` entries ("report" or "tally")
/// are exactly the campaign's slot names, each once: a chunk that lacks a
/// slot would silently drop that report's sites from the totals.
template <typename Slot, typename Value>
void check_slots(const std::string& campaign, const char* kind,
                 const std::vector<Slot>& slots,
                 const std::vector<std::pair<std::string, Value>>& entries) {
  auto fail = [&](const char* problem, const std::string& name) {
    throw std::runtime_error("journal chunk for campaign '" + campaign +
                             "' " + problem + " " + kind + " '" + name + "'");
  };
  for (const auto& entry : entries) {
    if (std::none_of(slots.begin(), slots.end(), [&](const Slot& slot) {
          return slot.name == entry.first;
        })) {
      fail("has unknown", entry.first);
    }
  }
  for (const Slot& slot : slots) {
    const auto copies = std::count_if(
        entries.begin(), entries.end(),
        [&](const auto& entry) { return entry.first == slot.name; });
    if (copies != 1) fail(copies == 0 ? "lacks" : "repeats", slot.name);
  }
}

/// Validates every journaled chunk against its campaign's spec and folds
/// it into that campaign's fold (both parallel to `specs`).
std::vector<Recovered> recover(const JournalContents& contents,
                               const std::vector<CampaignSpec>& specs,
                               std::vector<ReportFold>& folds) {
  std::vector<Recovered> recovered(specs.size());
  for (const json::Value& entry : contents.entries) {
    auto chunk = chunk_from_json(entry);
    if (!chunk) {
      throw std::runtime_error("corrupt journal entry: " +
                               chunk.error().message);
    }
    std::size_t index = 0;
    while (index < specs.size() && specs[index].name != chunk->campaign) {
      ++index;
    }
    if (index == specs.size()) {
      throw std::runtime_error("journal entry for unknown campaign '" +
                               chunk->campaign + "'");
    }
    const CampaignSpec& spec = specs[index];
    Recovered& rec = recovered[index];
    if (rec.covered.size() != spec.count) rec.covered.assign(spec.count, 0);
    for (const auto& [first, count] : chunk->ranges) {
      if (first < spec.first_rank ||
          first + count > spec.first_rank + spec.count) {
        throw std::runtime_error("journal chunk outside the '" +
                                 chunk->campaign + "' campaign's rank range");
      }
      for (std::size_t rank = first; rank < first + count; ++rank) {
        char& cell = rec.covered[rank - spec.first_rank];
        if (cell != 0) {
          throw std::runtime_error("journal chunks overlap: rank " +
                                   std::to_string(rank) + " journaled twice");
        }
        cell = 1;
      }
    }
    check_slots(spec.name, "report", spec.reports, chunk->reports);
    check_slots(spec.name, "tally", spec.tallies, chunk->tallies);
    // Recovered chunks merge like live windows (commutative), so a
    // resumed campaign lands on the uninterrupted bytes.
    (void)folds[index].fold(*chunk);
    ++rec.chunks;
    rec.sites += chunk->site_count();
  }
  return recovered;
}

/// Opens the run's journal: a fresh one pinned to the fingerprint, or —
/// on resume — the existing one, whose chunks are folded on the way.
std::unique_ptr<JournalWriter> open_journal(
    const std::vector<CampaignSpec>& specs, const CampaignRunOptions& options,
    std::vector<ReportFold>& folds, std::vector<Recovered>& recovered) {
  if (!options.resume) {
    auto created =
        JournalWriter::create(options.journal_path, options.fingerprint);
    if (!created) throw std::runtime_error(created.error().message);
    return std::move(created.value());
  }
  auto contents = read_journal(options.journal_path);
  if (!contents) throw std::runtime_error(contents.error().message);
  auto header_fp = header_fingerprint(contents->header);
  if (!header_fp) throw std::runtime_error(header_fp.error().message);
  if (json::write(*header_fp) != json::write(options.fingerprint)) {
    throw std::runtime_error(
        "journal fingerprint mismatch: journal was written by " +
        json::write(*header_fp) + " but this config is " +
        json::write(options.fingerprint));
  }
  recovered = recover(*contents, specs, folds);
  auto appender =
      JournalWriter::append_to(options.journal_path, contents->valid_bytes);
  if (!appender) throw std::runtime_error(appender.error().message);
  return std::move(appender.value());
}

/// The observer every campaign crawls with: owns the per-worker report
/// windows and metric shards. begin()/metrics() run on the crawl's
/// coordinating thread before any worker starts; site()/chunk() run on
/// the worker's own thread and touch only that worker's window.
class CampaignWindows final : public obs::Observer {
 public:
  CampaignWindows(const CampaignSpec& spec, const CampaignRunOptions& options,
                  ReportFold& fold, JournalWriter* journal,
                  FirstError& io_error)
      : spec_(spec),
        options_(options),
        fold_(fold),
        journal_(journal),
        io_error_(io_error) {
    registry_.set_histogram_budget(options.hist_budget);
    // One classification per distinct policy per site: slots sharing a
    // policy (Alexa's endless and overlap reports, the optimizer's
    // baseline report and mask-0 tally) share its result.
    for (const ReportSlot& slot : spec.reports) {
      report_policy_.push_back(policy_index(slot.policy));
    }
    for (const TallySlot& slot : spec.tallies) {
      tally_policy_.push_back(policy_index(slot.policy));
    }
  }

  void begin(unsigned workers) override {
    while (windows_.size() < workers) {
      auto window = std::make_unique<Window>();
      window->classes.resize(policies_.size());
      reset(*window);
      windows_.push_back(std::move(window));
      (void)registry_.shard(static_cast<unsigned>(windows_.size() - 1));
    }
  }

  obs::Metrics* metrics(unsigned worker) override {
    return &registry_.shard(worker);
  }

  void site(unsigned worker, browser::SiteResult& result) override {
    if (!result.reachable) return;
    Window& window = *windows_[worker];
    const core::SiteObservation& observation =
        spec_.source == ObservationSource::kHar ? result.har_observation
                                                : result.netlog_observation;
    window.classify.prepare(observation);
    for (std::size_t p = 0; p < policies_.size(); ++p) {
      window.classes[p] = window.classify.classify(policies_[p]);
    }
    const bool in_overlap = result.rank >= spec_.overlap_begin &&
                            result.rank < spec_.overlap_end;
    for (std::size_t s = 0; s < spec_.reports.size(); ++s) {
      if (spec_.reports[s].overlap_only && !in_overlap) continue;
      window.reports[s].add_site(observation,
                                 window.classes[report_policy_[s]]);
    }
    for (std::size_t t = 0; t < spec_.tallies.size(); ++t) {
      window.tallies[t].add_site(window.classes[report_policy_[0]],
                                 window.classes[tally_policy_[t]]);
    }
    if (spec_.count_overlap_sites && in_overlap) ++window.overlap_sites;
  }

  void chunk(const browser::ChunkEvent& event) override {
    Window& window = *windows_[event.worker];
    ChunkCheckpoint checkpoint;
    checkpoint.campaign = spec_.name;
    checkpoint.ranges = event.ranges;
    checkpoint.summary = event.summary;
    for (std::size_t s = 0; s < spec_.reports.size(); ++s) {
      checkpoint.reports.emplace_back(spec_.reports[s].name,
                                      window.reports[s].report());
    }
    for (std::size_t t = 0; t < spec_.tallies.size(); ++t) {
      checkpoint.tallies.emplace_back(spec_.tallies[t].name,
                                      std::move(window.tallies[t]));
    }
    checkpoint.overlap_sites = window.overlap_sites;
    reset(window);
    if (journal_ != nullptr) {
      auto committed = journal_->append(to_json(checkpoint));
      if (!committed) {
        io_error_.capture("journal append failed: " +
                          committed.error().message);
      }
    }
    (void)fold_.fold(checkpoint);
  }

  obs::Metrics merged() const { return registry_.merged(); }

 private:
  /// One worker's chunk-local aggregation state.
  struct Window {
    std::vector<core::Aggregator> reports;   // parallel to spec_.reports
    std::vector<core::PolicyTally> tallies;  // parallel to spec_.tallies
    std::uint64_t overlap_sites = 0;
    core::ClassifyContext classify;
    std::vector<core::SiteClassification> classes;  // parallel to policies_
  };

  std::size_t policy_index(const core::Policy& policy) {
    for (std::size_t p = 0; p < policies_.size(); ++p) {
      if (policies_[p] == policy) return p;
    }
    policies_.push_back(policy);
    return policies_.size() - 1;
  }

  void reset(Window& window) const {
    window.reports.assign(spec_.reports.size(),
                          core::Aggregator(options_.as_db,
                                           options_.hist_budget));
    window.tallies.assign(spec_.tallies.size(), core::PolicyTally{});
    window.overlap_sites = 0;
  }

  const CampaignSpec& spec_;
  const CampaignRunOptions& options_;
  ReportFold& fold_;
  JournalWriter* journal_;
  FirstError& io_error_;
  std::vector<core::Policy> policies_;      // distinct, first-use order
  std::vector<std::size_t> report_policy_;  // slot -> policies_ index
  std::vector<std::size_t> tally_policy_;
  std::vector<std::unique_ptr<Window>> windows_;
  obs::MetricRegistry registry_;
};

}  // namespace

RunOutcome run_campaigns(web::SiteUniverse& universe,
                         const std::vector<CampaignSpec>& specs,
                         const CampaignRunOptions& options) {
  std::vector<ReportFold> folds(specs.size());
  std::vector<Recovered> recovered(specs.size());
  std::unique_ptr<JournalWriter> journal;
  if (!options.journal_path.empty()) {
    journal = open_journal(specs, options, folds, recovered);
  }

  RunOutcome outcome;
  outcome.campaigns.resize(specs.size());
  FirstError io_error;
  auto run = [&](std::size_t index) {
    const CampaignSpec& spec = specs[index];
    const Recovered& rec = recovered[index];
    CampaignOutcome& out = outcome.campaigns[index];
    CampaignWindows observer{spec, options, folds[index], journal.get(),
                             io_error};
    browser::CrawlOptions crawl = spec.crawl;
    crawl.observer = &observer;
    std::vector<std::size_t> targets;  // the ranks the journal lacks
    for (std::size_t i = 0; i < rec.covered.size(); ++i) {
      if (rec.covered[i] == 0) targets.push_back(i);
    }
    crawl.targets = rec.covered.empty() ? nullptr : &targets;
    browser::CrawlSummary live =
        browser::crawl(universe, spec.first_rank, spec.count, crawl);
    // The fold summed every chunk's counters, live and recovered; the
    // crawl adds its per-worker diagnostics.
    out.totals = folds[index].finish().value();
    out.totals.summary.per_worker = std::move(live.per_worker);
    out.totals.summary.wall_ms = live.wall_ms;
    out.metrics = observer.merged();
    out.resumed_chunks = rec.chunks;
    out.resumed_sites = rec.sites;
  };

  // Every campaign runs its own crawl workers; the first runs on this
  // thread, the rest on one thread each.
  std::vector<std::exception_ptr> failures(specs.size());
  auto guarded = [&](std::size_t index) {
    try {
      run(index);
    } catch (...) {
      failures[index] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;  // joined here, even on a throw
    for (std::size_t i = 1; i < specs.size(); ++i) {
      threads.emplace_back(guarded, i);
    }
    if (!specs.empty()) guarded(0);
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure != nullptr) std::rethrow_exception(failure);
  }
  if (io_error.error != nullptr) std::rethrow_exception(io_error.error);

  if (journal != nullptr) {
    outcome.journal_bytes = journal->bytes_written();
    outcome.journal_fsyncs = journal->fsync_count();
  }
  return outcome;
}

}  // namespace h2r::journal
