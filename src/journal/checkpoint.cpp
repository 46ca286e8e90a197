#include "journal/checkpoint.hpp"

namespace h2r::journal {

json::Value to_json(const browser::CrawlSummary& summary) {
  return json::encode(summary);
}

util::Expected<browser::CrawlSummary> crawl_summary_from_json(
    const json::Value& value) {
  return json::decode<browser::CrawlSummary>(value, "CrawlSummary");
}

std::size_t ChunkCheckpoint::site_count() const noexcept {
  std::size_t total = 0;
  for (const auto& [first, count] : ranges) {
    (void)first;
    total += count;
  }
  return total;
}

json::Value to_json(const ChunkCheckpoint& chunk) {
  return json::encode(chunk);
}

util::Expected<ChunkCheckpoint> chunk_from_json(const json::Value& value) {
  return json::decode<ChunkCheckpoint>(value, "ChunkCheckpoint");
}

}  // namespace h2r::journal
