// Ablation (paper §4.3 limitation): "we only review landing pages, which
// can show different behavior than internal pages."
//
// This bench measures what the paper could not: multi-page visits with
// warm connection pools. Internal pages reuse the landing page's
// connections, so they open a fraction of the connections — and the
// redundancy the classifier reports for the whole visit barely grows
// after the first page. Landing-page-only studies therefore measure the
// worst case per page view.
#include <cstdio>

#include "browser/browser.hpp"
#include "core/classify.hpp"
#include "dns/vantage.hpp"
#include "experiments/study.hpp"
#include "util/format.hpp"
#include "web/catalog.hpp"
#include "web/sitegen.hpp"

using namespace h2r;

int main() {
  const experiments::StudyConfig sc = experiments::StudyConfig::from_env();
  const std::size_t sites = std::min<std::size_t>(sc.alexa_sites, 800);
  constexpr std::size_t kInternalPages = 3;

  web::Ecosystem eco{sc.seed};
  web::ServiceCatalog catalog{eco, sc.seed};
  web::UniverseConfig config = web::UniverseConfig::defaults();
  config.seed = sc.seed;
  web::SiteUniverse universe{eco, catalog, config};
  dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                  &eco.authority()};
  browser::Browser chrome{eco, resolver, browser::BrowserOptions{}, sc.seed};
  core::ClassifyContext classify;

  std::vector<double> conns_per_page(kInternalPages + 1, 0.0);
  std::vector<double> requests_per_page(kInternalPages + 1, 0.0);
  double landing_redundant = 0;
  double visit_redundant = 0;
  std::size_t visited = 0;

  util::SimTime now = util::days(1);
  for (std::size_t rank = 0; rank < sites; ++rank, now += util::seconds(45)) {
    if (universe.unreachable(rank)) continue;
    const web::Website site = universe.generate_site(rank);
    const auto internal = universe.internal_pages(rank, kInternalPages);
    const browser::VisitResult visit = chrome.visit(site, internal, now);
    if (visit.pages.empty()) continue;
    ++visited;
    for (std::size_t p = 0; p < visit.pages.size(); ++p) {
      conns_per_page[p] += static_cast<double>(
          visit.pages[p].connections_opened);
      requests_per_page[p] += static_cast<double>(visit.pages[p].requests);
    }
    // One observation, two policies: the whole visit under kExact, and
    // the landing page alone via a horizon at the second page's start —
    // the replay slices the visit instead of paying a second cold-pool
    // load (same numbers, half the crawling).
    classify.prepare(visit.observation);
    visit_redundant += static_cast<double>(
        classify.classify({core::DurationModel::kExact})
            .redundant_connections());
    core::Policy landing{core::DurationModel::kExact};
    if (visit.pages.size() > 1) {
      landing.horizon = visit.pages[1].started_at;
    }
    landing_redundant += static_cast<double>(
        classify.classify(landing).redundant_connections());
  }

  std::printf("# internal-pages ablation: %zu sites x (landing + %zu "
              "internal pages)\n\n",
              visited, kInternalPages);
  std::printf("%-12s %16s %14s\n", "page", "new connections", "requests");
  for (std::size_t p = 0; p <= kInternalPages; ++p) {
    std::printf("%-12s %16.1f %14.1f\n",
                p == 0 ? "landing" : ("internal " + std::to_string(p)).c_str(),
                conns_per_page[p] / static_cast<double>(visited),
                requests_per_page[p] / static_cast<double>(visited));
  }
  std::printf("\nredundant connections: landing-only %.1f per site, whole "
              "%zu-page visit %.1f per site (+%.0f%%, NOT x%zu)\n",
              landing_redundant / static_cast<double>(visited),
              kInternalPages + 1,
              visit_redundant / static_cast<double>(visited),
              100.0 * (visit_redundant / landing_redundant - 1.0),
              kInternalPages + 1);
  std::printf("-> warm pools absorb internal-page traffic; per page view, "
              "landing-page studies are the worst case (paper §4.3).\n");
  return 0;
}
