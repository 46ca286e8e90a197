// Coalescing audit for a single website: loads the page through the
// Chromium-model browser and runs the remediation advisor
// (core/advisor.hpp), mapping every redundant connection to the paper's
// §5.3 recommendations: synchronized DNS / shared CNAMEs for IP, merged
// certificates for CERT, Fetch adaptation or crossorigin alignment for
// CRED, ORIGIN frames as the protocol-level fix.
//
//   $ ./audit_site [rank]
//
// `rank` picks a site from the generated universe (default 3).
#include <cstdio>
#include <cstdlib>

#include "browser/crawl.hpp"
#include "core/advisor.hpp"
#include "web/catalog.hpp"
#include "web/sitegen.hpp"

using namespace h2r;

int main(int argc, char** argv) {
  const std::size_t rank = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;

  web::Ecosystem eco{42};
  web::ServiceCatalog catalog{eco, 42};
  web::SiteUniverse universe{eco, catalog};
  const web::Website site = universe.generate_site(rank);

  dns::RecursiveResolver resolver{dns::standard_vantage_points()[0],
                                  &eco.authority()};
  browser::Browser chrome{eco, resolver, browser::BrowserOptions{}, 99};
  const browser::PageLoadResult page = chrome.load(site, util::days(1));

  std::printf("%zu HTTP/2 connections, %llu coalesced reuses, %llu group "
              "reuses\n\n",
              page.observation.connections.size(),
              static_cast<unsigned long long>(page.alias_reuses),
              static_cast<unsigned long long>(page.group_reuses));

  const core::AuditReport report = core::audit_site(page.observation);
  std::printf("%s", core::render(report).c_str());
  return 0;
}
