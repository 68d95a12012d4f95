#include "runtime/view_epochs.hpp"

#include <algorithm>

namespace rader {

ViewEpochs::Drain ViewEpochs::pop() {
  RADER_DCHECK(depth_ > 0);
  --depth_;
  Epoch& dead = epochs_[depth_];
  const std::size_t first = drain_.size();
  for (const ReducerId h : dead.members) {
    std::vector<Record>& s = views_[h];
    RADER_DCHECK(!s.empty() && s.back().depth == depth_);
    drain_.push_back(Drained{h, s.back().view});
    s.pop_back();
  }
  dead.members.clear();
  std::sort(drain_.begin() + static_cast<std::ptrdiff_t>(first), drain_.end(),
            [](const Drained& a, const Drained& b) { return a.h < b.h; });
  return Drain{dead.vid, first, drain_.size()};
}

std::vector<void*> ViewEpochs::extract_all(ReducerId h) {
  std::vector<void*> found;
  if (h >= views_.size()) return found;
  for (const Record& r : views_[h]) {
    found.push_back(r.view);
    std::vector<ReducerId>& m = epochs_[r.depth].members;
    m.erase(std::find(m.begin(), m.end(), h));
  }
  views_[h].clear();
  return found;
}

std::vector<ReducerId> ViewEpochs::reducers_at(std::size_t depth) const {
  RADER_DCHECK(depth < depth_);
  std::vector<ReducerId> rs = epochs_[depth].members;
  std::sort(rs.begin(), rs.end());
  return rs;
}

void ViewEpochs::clear() {
  for (std::size_t d = 0; d < depth_; ++d) epochs_[d].members.clear();
  depth_ = 0;
  for (std::vector<Record>& s : views_) s.clear();
  drain_.clear();
}

}  // namespace rader
