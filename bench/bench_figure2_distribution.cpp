// Regenerates the paper's Figure 2: the distribution of websites in
// relation to their redundant connection count (complementary cumulative
// distribution — "share of sites with at least k redundant connections").
//
// Expected shape (paper): ~50% of HTTP-Archive sites open >= 2 redundant
// connections; ~50% of Alexa sites open >= 6; the w/o-Fetch curve sits
// below the Alexa curve.
#include <cstdio>
#include <fstream>
#include <string>

#include "common.hpp"
#include "stats/distribution.hpp"
#include "util/env.hpp"

using namespace h2r;

namespace {

double share_at(const core::AggregateReport& report, std::size_t k) {
  if (report.h2_sites == 0) return 0.0;
  return static_cast<double>(report.sites_with_at_least(k)) /
         static_cast<double>(report.h2_sites);
}

void spark_row(const char* name, const core::AggregateReport& report) {
  std::printf("%-16s", name);
  for (std::size_t k = 1; k <= 20; ++k) {
    std::printf(" %5.1f", 100.0 * share_at(report, k));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const experiments::StudyResults& r = benchcommon::study();

  std::printf("Figure 2: share of sites (%%) with >= k redundant "
              "connections\n\n%-16s", "k =");
  for (std::size_t k = 1; k <= 20; ++k) std::printf(" %5zu", k);
  std::printf("\n");
  spark_row("HAR (x)", r.har_endless);
  spark_row("Alexa (+)", r.alexa_exact);
  spark_row("Alexa w/o Fetch", r.nofetch_exact);

  // Optional machine-readable dump for plotting: set H2R_CSV_DIR.
  if (const std::string dir = util::env("H2R_CSV_DIR", std::string{});
      !dir.empty()) {
    const struct {
      const char* name;
      const core::AggregateReport* report;
    } series[] = {
        {"figure2_har.csv", &r.har_endless},
        {"figure2_alexa.csv", &r.alexa_exact},
        {"figure2_alexa_nofetch.csv", &r.nofetch_exact},
    };
    for (const auto& s : series) {
      std::ofstream out(dir + "/" + s.name);
      out << stats::ccdf_to_csv(s.report->redundant_per_site_histogram);
    }
    std::printf("\n(CSV series written to %s)\n", dir.c_str());
  }

  std::printf("\nmedian point: 50%% of HAR sites have >= %zu, 50%% of Alexa "
              "sites have >= %zu redundant connections "
              "(paper: >= 2 and >= 6)\n",
              stats::value_at_share(
                  r.har_endless.redundant_per_site_histogram, 0.5),
              stats::value_at_share(
                  r.alexa_exact.redundant_per_site_histogram, 0.5));
  return 0;
}
