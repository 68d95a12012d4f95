#include "dag/graph.hpp"

namespace rader::dag {

Reachability::Reachability(const PerfDag& dag) : n_(dag.size()) {
  desc_.assign(n_, StrandSet(n_));
  anc_.assign(n_, StrandSet(n_));
  for (std::size_t u = 0; u < n_; ++u) {
    desc_[u].set(u);
    anc_[u].set(u);
  }
  // Strand IDs are a topological order: edges go from lower to higher IDs.
  // Descendants: sweep sinks-to-sources; ancestors: sources-to-sinks.
  std::vector<std::vector<StrandId>> succs(n_);
  for (const auto& [a, b] : dag.edges) {
    RADER_CHECK_MSG(a < b, "performance-dag edge violates serial order");
    succs[a].push_back(b);
  }
  for (std::size_t u = n_; u-- > 0;) {
    for (const StrandId v : succs[u]) desc_[u] |= desc_[v];
  }
  for (std::size_t u = 0; u < n_; ++u) {
    for (const StrandId v : succs[u]) anc_[v] |= anc_[u];
  }
}

bool Reachability::same_peers(StrandId u, StrandId v) const {
  // peers(u) is the complement of anc(u) ∪ desc(u) (self is in both), so
  // peer sets are equal iff the unions are equal.
  const auto& du = desc_[u].words();
  const auto& au = anc_[u].words();
  const auto& dv = desc_[v].words();
  const auto& av = anc_[v].words();
  for (std::size_t w = 0; w < du.size(); ++w) {
    if ((du[w] | au[w]) != (dv[w] | av[w])) return false;
  }
  return true;
}

std::size_t Reachability::peer_count(StrandId u) const {
  const auto& du = desc_[u].words();
  const auto& au = anc_[u].words();
  std::size_t series = 0;
  for (std::size_t w = 0; w < du.size(); ++w) {
    series += static_cast<std::size_t>(__builtin_popcountll(du[w] | au[w]));
  }
  return n_ - series;
}

}  // namespace rader::dag
