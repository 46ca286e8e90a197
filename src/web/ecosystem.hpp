// The synthetic Internet: ASes with address space, server clusters,
// certificates and DNS zones — everything the browser's network stack
// resolves against and connects to.
//
// A *cluster* is the unit of deployment: a set of IPs owned by one
// operator, a set of domains with per-domain DNS pools and LB policies,
// and certificate groups. The combinations the paper attributes map 1:1
// onto cluster configurations:
//
//   IP   : shared pool + PerResolverShuffle LB + one cert covering all
//          domains (unsynchronized load balancing), or disjoint pools with
//          a covering cert (real distribution, wp.com-style)
//   CERT : same pool/IP but disjunct certificate groups
//   CRED : any cluster — produced by the *browser* when credentialed and
//          anonymous requests hit the same domain
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asdb/asdb.hpp"
#include "dns/authoritative.hpp"
#include "net/ip.hpp"
#include "tls/certificate.hpp"
#include "tls/issuance.hpp"
#include "util/rng.hpp"
#include "web/server.hpp"

namespace h2r::web {

/// One certificate group: a SAN list issued by one CA organization.
struct CertGroupSpec {
  std::string issuer;
  std::vector<std::string> sans;
  /// Validity window; an expired certificate makes the browser abort the
  /// handshake (the paper's crawls do not ignore certificate errors).
  util::SimTime not_before = 0;
  util::SimTime not_after = util::kSimTimeMax;
};

/// One domain of a cluster.
struct DomainSpec {
  std::string name;
  /// Indices into the cluster's IPs that DNS announces for this name.
  /// Empty = the whole cluster.
  std::vector<std::size_t> dns_pool;
  /// Indices of IPs that actually serve the domain (200 vs 421).
  /// Empty = every cluster IP serves it. The asymmetric Facebook case
  /// (CFB's script also served on WFB's IPs, not vice versa) is expressed
  /// by restricting one domain's `serves_on` but not the other's.
  std::vector<std::size_t> serves_on;
  /// Certificate group (index into ClusterSpec::certs) presented for this
  /// domain. Default: the first group whose SANs cover the domain.
  std::optional<std::size_t> cert_group;
  dns::LbConfig lb;
  std::uint32_t ttl_seconds = 60;
};

struct ClusterSpec {
  std::string operator_name;
  std::string as_name;  // must be registered with the ecosystem first
  std::size_t ip_count = 1;
  /// Allocate each IP in a distinct /24 (wp.com-style genuinely
  /// distributed deployments) instead of one contiguous /24 block.
  bool spread_slash24 = false;
  std::vector<DomainSpec> domains;
  std::vector<CertGroupSpec> certs;
  /// Announce an RFC 8336 ORIGIN frame listing all served domains.
  bool announce_origin_frame = false;
  /// Servers close idle connections after this long (GOAWAY).
  std::optional<util::SimTime> idle_timeout;
  /// HTTP/1.1-only deployment (no ALPN h2).
  bool h2_enabled = true;
  /// Advertise HTTP/3 via Alt-Svc (big CDNs/operators in 2021).
  bool h3_enabled = false;
};

/// A self-contained cluster deployment owned by one website instead of
/// the shared ecosystem: its servers, DNS record sets and certificates.
/// Produced by Ecosystem::plan_cluster as a pure function of the cluster
/// spec and an allocation seed, which is what lets crawl workers
/// generate sites on demand without mutating — or even locking — the
/// shared ecosystem. The browser treats a site's
/// deployment as an overlay: lookups consult it first, then fall back to
/// the shared catalog.
struct SiteDeployment {
  std::map<net::IpAddress, std::shared_ptr<const Server>> servers;
  /// Keys are lowercase; handed to the resolver as its record overlay.
  dns::RecordOverlay records;
  std::map<std::string, tls::CertificatePtr, std::less<>> domain_certs;

  const Server* server_at(const net::IpAddress& address) const noexcept {
    const auto it = servers.find(address);
    return it == servers.end() ? nullptr : it->second.get();
  }
  tls::CertificatePtr certificate_of(std::string_view domain) const noexcept {
    const auto it = domain_certs.find(domain);
    return it == domain_certs.end() ? nullptr : it->second;
  }
};

class Ecosystem {
 public:
  explicit Ecosystem(std::uint64_t seed = 1);

  // ----------------------------------------------------------- topology

  /// Registers an AS and its address space. Clusters draw addresses from
  /// their AS's prefix.
  void register_as(const std::string& as_name, std::uint32_t asn,
                   const net::Prefix& prefix);

  /// Instantiates a cluster: allocates IPs, creates servers + virtual
  /// hosts + certificates, and publishes DNS records.
  /// Returns the allocated addresses.
  std::vector<net::IpAddress> add_cluster(const ClusterSpec& spec);

  /// Pure (const) counterpart of add_cluster: builds the same cluster as
  /// a free-standing SiteDeployment without touching the shared
  /// ecosystem. Everything order-dependent in add_cluster is replaced by
  /// a pure function of `alloc_seed`: addresses are hashed into a region
  /// of the AS prefix that the shared allocator never reaches, LB salts
  /// and certificate serials are derived from the seed. Two plans of the
  /// same (spec, alloc_seed) are identical, regardless of what else was
  /// planned or added before — the determinism foundation of streaming
  /// crawls.
  SiteDeployment plan_cluster(const ClusterSpec& spec,
                              std::uint64_t alloc_seed) const;

  // ------------------------------------------------------------- lookup

  const dns::AuthoritativeServer& authority() const noexcept {
    return authority_;
  }
  dns::AuthoritativeServer& authority() noexcept { return authority_; }

  const asdb::AsDatabase& as_database() const noexcept { return as_db_; }

  const Server* server_at(const net::IpAddress& address) const noexcept;
  Server* server_at(const net::IpAddress& address) noexcept;

  std::size_t server_count() const noexcept { return servers_.size(); }

  /// The certificate a cluster issued for `domain` (first covering group),
  /// for tests and audits.
  tls::CertificatePtr certificate_of(std::string_view domain) const noexcept;

 private:
  struct AsSpace {
    asdb::AsInfo info;
    net::Prefix prefix;
    std::uint32_t next_host = 1;   // offset within the prefix
    std::uint32_t next_subnet = 0; // /24 counter for spread allocation
  };

  std::vector<net::IpAddress> allocate(const std::string& as_name,
                                       std::size_t count, bool spread);
  std::vector<net::IpAddress> plan_addresses(const std::string& as_name,
                                             std::size_t count, bool spread,
                                             util::Rng& rng) const;

  std::uint64_t seed_;
  dns::AuthoritativeServer authority_;
  asdb::AsDatabase as_db_;
  std::map<std::string, AsSpace> as_spaces_;
  std::map<net::IpAddress, std::unique_ptr<Server>> servers_;
  std::map<std::string, tls::CertificatePtr, std::less<>> domain_certs_;
  std::map<std::string, std::unique_ptr<tls::CertificateAuthority>> cas_;
  std::uint64_t lb_salt_counter_ = 0;
};

}  // namespace h2r::web
