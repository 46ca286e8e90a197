// Audit a real HAR file for redundant HTTP/2 connections — the
// practitioner-facing tool this library enables: feed it a HAR export
// from Chrome DevTools (or the HTTP Archive) and it reports which
// connections Connection Reuse should have avoided and what to fix.
//
//   $ ./har_audit page.har          # audit a HAR file
//   $ ./har_audit --demo            # generate + audit a synthetic HAR
//   $ ./har_audit --demo out.har    # also save the generated HAR
//
// Notes on fidelity: like the paper's HTTP Archive pipeline, the importer
// applies the §4.3 consistency filters and reconstructs connections from
// request-level data (socket ids), so lifetimes are bounded by the
// endless/immediate models.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "browser/crawl.hpp"
#include "core/classify.hpp"
#include "core/advisor.hpp"
#include "har/export.hpp"
#include "har/import.hpp"
#include "web/catalog.hpp"
#include "web/sitegen.hpp"

using namespace h2r;

namespace {

std::string demo_har() {
  // Crawl one synthetic site and export its HAR — a stand-in for a
  // DevTools capture.
  web::Ecosystem eco{2026};
  web::ServiceCatalog catalog{eco, 2026};
  web::SiteUniverse universe{eco, catalog};
  dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                  &eco.authority()};
  browser::Browser chrome{eco, resolver, browser::BrowserOptions{}, 1};
  // Pick the first site that actually exhibits redundancy — a demo of
  // "nothing to fix" teaches less.
  browser::PageLoadResult page;
  for (std::size_t rank = 1; rank < 40; ++rank) {
    page = chrome.load(universe.generate_site(rank), util::days(1));
    const auto cls = core::classify_site(page.observation,
                                         {core::DurationModel::kEndless});
    if (cls.redundant_connections() >= 3) break;
  }
  util::Rng rng{1};
  return har::to_string(
      har::export_site(page.observation, page.h1_entries,
                       har::ExportQuirks::none(), rng),
      /*pretty=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  std::string text;
  if (argc > 1 && std::string(argv[1]) != "--demo") {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  } else {
    std::printf("(no HAR file given — generating a synthetic demo HAR)\n\n");
    text = demo_har();
    if (argc > 2) {
      std::ofstream out(argv[2]);
      out << text;
      std::printf("demo HAR written to %s\n\n", argv[2]);
    }
  }

  const auto log = har::parse(text);
  if (!log.has_value()) {
    std::fprintf(stderr, "HAR parse error: %s (offset %zu)\n",
                 log.error().message.c_str(), log.error().offset);
    return 1;
  }

  har::ImportStats stats;
  const core::SiteObservation site = har::import_site(log.value(), &stats);
  std::printf("%llu entries: %llu usable HTTP/2 requests, %llu filtered, "
              "%llu HTTP/1.x, %llu HTTP/3 (socket id 0)\n\n",
              static_cast<unsigned long long>(stats.total_entries),
              static_cast<unsigned long long>(stats.used_entries),
              static_cast<unsigned long long>(stats.dropped()),
              static_cast<unsigned long long>(stats.h1_entries),
              static_cast<unsigned long long>(stats.h3_entries));

  // HAR has no close events: report the endless upper bound, and note the
  // immediate lower bound.
  const auto endless =
      core::classify_site(site, {core::DurationModel::kEndless});
  const auto immediate =
      core::classify_site(site, {core::DurationModel::kImmediate});
  const core::AuditReport report = core::audit_site(
      site, endless, core::Policy{core::DurationModel::kEndless});
  std::printf("%s", core::render(report).c_str());
  std::printf("\n(lower bound if connections close after their last "
              "request: %zu redundant)\n",
              immediate.redundant_connections());
  return 0;
}
