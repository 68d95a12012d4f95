#include "core/race_report.hpp"

#include <algorithm>
#include <sstream>

#include "support/common.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rader {

namespace {

/// Append `spec` to `specs` unless already present (specs stay in first-seen
/// order, so specs[0] == found_under for stamped reports).
void add_spec(std::vector<std::string>& specs, const std::string& spec) {
  if (spec.empty()) return;
  if (std::find(specs.begin(), specs.end(), spec) != specs.end()) return;
  specs.push_back(spec);
}

std::size_t combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

std::size_t RaceLog::KeyHash::operator()(const ViewReadKey& k) const {
  std::size_t h = std::hash<ReducerId>{}(k.reducer);
  h = combine(h, std::hash<std::string>{}(k.prior_label));
  h = combine(h, std::hash<std::string>{}(k.current_label));
  return h;
}

std::size_t RaceLog::KeyHash::operator()(const DeterminacyKey& k) const {
  std::size_t h = std::hash<std::uintptr_t>{}(k.addr);
  h = combine(h, static_cast<std::size_t>(k.current_kind));
  h = combine(h, (k.current_view_aware ? 2u : 0u) |
                     (k.prior_was_write ? 1u : 0u));
  h = combine(h, std::hash<std::string>{}(k.current_label));
  return h;
}

void RaceLog::absorb_view_read(const ViewReadRace& r) {
  ViewReadKey key{r.reducer, r.prior_label, r.current_label};
  const auto it = seen_view_reads_.find(key);
  if (it == seen_view_reads_.end()) {
    metrics::bump(metrics::Counter::kRacesReported);
    std::size_t idx = kDropped;
    if (view_read_races_.size() < max_stored_) {
      idx = view_read_races_.size();
      view_read_races_.push_back(r);
      add_spec(view_read_races_.back().eliciting_specs, r.found_under);
    }
    seen_view_reads_.emplace(std::move(key), idx);
    return;
  }
  metrics::bump(metrics::Counter::kRacesDeduped);
  if (it->second == kDropped) return;
  ViewReadRace& stored = view_read_races_[it->second];
  stored.occurrences += r.occurrences;
  add_spec(stored.eliciting_specs, r.found_under);
  for (const auto& s : r.eliciting_specs) add_spec(stored.eliciting_specs, s);
  if (stored.provenance_json.empty() && !r.provenance_json.empty()) {
    stored.provenance_json = r.provenance_json;
    stored.provenance_text = r.provenance_text;
  }
}

void RaceLog::absorb_determinacy(const DeterminacyRace& r) {
  DeterminacyKey key{r.addr, r.current_kind, r.current_view_aware,
                     r.prior_was_write, r.current_label};
  const auto it = seen_determinacy_.find(key);
  if (it == seen_determinacy_.end()) {
    metrics::bump(metrics::Counter::kRacesReported);
    std::size_t idx = kDropped;
    if (determinacy_races_.size() < max_stored_) {
      idx = determinacy_races_.size();
      determinacy_races_.push_back(r);
      add_spec(determinacy_races_.back().eliciting_specs, r.found_under);
    }
    seen_determinacy_.emplace(std::move(key), idx);
    return;
  }
  metrics::bump(metrics::Counter::kRacesDeduped);
  if (it->second == kDropped) return;
  DeterminacyRace& stored = determinacy_races_[it->second];
  stored.occurrences += r.occurrences;
  add_spec(stored.eliciting_specs, r.found_under);
  for (const auto& s : r.eliciting_specs) add_spec(stored.eliciting_specs, s);
  if (stored.provenance_json.empty() && !r.provenance_json.empty()) {
    stored.provenance_json = r.provenance_json;
    stored.provenance_text = r.provenance_text;
  }
}

void RaceLog::report_view_read(const ViewReadRace& r) {
  view_read_count_ += r.occurrences;
  absorb_view_read(r);
}

void RaceLog::report_determinacy(const DeterminacyRace& r) {
  determinacy_count_ += r.occurrences;
  absorb_determinacy(r);
}

void RaceLog::merge(const RaceLog& other) {
  view_read_count_ += other.view_read_count_;
  determinacy_count_ += other.determinacy_count_;
  for (const auto& r : other.view_read_races_) absorb_view_read(r);
  for (const auto& r : other.determinacy_races_) absorb_determinacy(r);
}

void RaceLog::set_view_read_provenance(std::size_t index, std::string json,
                                       std::string text) {
  RADER_CHECK(index < view_read_races_.size());
  view_read_races_[index].provenance_json = std::move(json);
  view_read_races_[index].provenance_text = std::move(text);
}

void RaceLog::set_determinacy_provenance(std::size_t index, std::string json,
                                         std::string text) {
  RADER_CHECK(index < determinacy_races_.size());
  determinacy_races_[index].provenance_json = std::move(json);
  determinacy_races_[index].provenance_text = std::move(text);
}

void RaceLog::stamp_found_under(const std::string& spec_description) {
  for (auto& r : view_read_races_) {
    if (r.found_under.empty()) r.found_under = spec_description;
    if (r.eliciting_specs.empty()) r.eliciting_specs.push_back(spec_description);
  }
  for (auto& r : determinacy_races_) {
    if (r.found_under.empty()) r.found_under = spec_description;
    if (r.eliciting_specs.empty()) r.eliciting_specs.push_back(spec_description);
  }
}

void RaceLog::stamp_repro_file(const std::string& path) {
  for (auto& r : view_read_races_) {
    if (r.repro_file.empty()) r.repro_file = path;
  }
  for (auto& r : determinacy_races_) {
    if (r.repro_file.empty()) r.repro_file = path;
  }
}

namespace {

/// " [replay: SPEC]" plus, when the race was elicited under several specs,
/// " (+N more specs)" — the dedup layer's footprint in the text report.
void append_replay(std::ostringstream& os,
                   const std::string& found_under,
                   const std::vector<std::string>& specs) {
  if (found_under.empty()) return;
  os << " [replay: " << found_under << "]";
  if (specs.size() > 1) os << " (+" << specs.size() - 1 << " more specs)";
}

/// Indent and append a multi-line provenance rendering under a race line.
void append_provenance_text(std::ostringstream& os, const std::string& text) {
  if (text.empty()) return;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) os << "    " << line << "\n";
}

}  // namespace

std::string RaceLog::to_string() const {
  std::ostringstream os;
  os << "RaceLog: " << view_read_count_ << " view-read race occurrence(s) ("
     << view_read_races_.size() << " distinct report(s)), "
     << determinacy_count_ << " determinacy race occurrence(s) ("
     << determinacy_races_.size() << " distinct report(s))\n";
  for (const auto& r : view_read_races_) {
    os << "  view-read race on reducer #" << r.reducer << ": read at '"
       << r.prior_label << "' (frame " << r.prior_frame
       << ") has different peers than read at '" << r.current_label
       << "' (frame " << r.current_frame << ")";
    append_replay(os, r.found_under, r.eliciting_specs);
    os << "\n";
    append_provenance_text(os, r.provenance_text);
  }
  for (const auto& r : determinacy_races_) {
    os << "  determinacy race at 0x" << std::hex << r.addr << std::dec << ": "
       << (r.current_kind == AccessKind::kWrite ? "write" : "read") << " ('"
       << r.current_label << "', frame " << r.current_frame << ", "
       << (r.current_view_aware ? "view-aware" : "view-oblivious")
       << ") races with earlier "
       << (r.prior_was_write ? "write" : "read") << " by frame "
       << r.prior_frame;
    append_replay(os, r.found_under, r.eliciting_specs);
    os << "\n";
    append_provenance_text(os, r.provenance_text);
  }
  return os.str();
}

namespace {

void append_json_specs(std::ostringstream& os,
                       const std::vector<std::string>& specs) {
  os << ",\"eliciting_specs\":[";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i != 0) os << ',';
    os << json_quoted(specs[i]);
  }
  os << ']';
}

}  // namespace

std::string RaceLog::to_json() const {
  std::ostringstream os;
  os << "{\"view_read_occurrences\":" << view_read_count_
     << ",\"determinacy_occurrences\":" << determinacy_count_
     << ",\"view_read_races\":[";
  for (std::size_t i = 0; i < view_read_races_.size(); ++i) {
    const auto& r = view_read_races_[i];
    if (i != 0) os << ',';
    os << "{\"reducer\":" << r.reducer << ",\"prior_frame\":" << r.prior_frame
       << ",\"current_frame\":" << r.current_frame
       << ",\"occurrences\":" << r.occurrences << ",\"prior_label\":";
    os << json_quoted(r.prior_label);
    os << ",\"current_label\":";
    os << json_quoted(r.current_label);
    os << ",\"found_under\":";
    os << json_quoted(r.found_under);
    append_json_specs(os, r.eliciting_specs);
    if (!r.provenance_json.empty()) {
      os << ",\"provenance\":" << r.provenance_json;
    }
    if (!r.repro_file.empty()) {
      os << ",\"repro_file\":";
      os << json_quoted(r.repro_file);
    }
    os << '}';
  }
  os << "],\"determinacy_races\":[";
  for (std::size_t i = 0; i < determinacy_races_.size(); ++i) {
    const auto& r = determinacy_races_[i];
    if (i != 0) os << ',';
    os << "{\"addr\":" << r.addr << ",\"kind\":\""
       << (r.current_kind == AccessKind::kWrite ? "write" : "read")
       << "\",\"view_aware\":" << (r.current_view_aware ? "true" : "false")
       << ",\"prior_was_write\":" << (r.prior_was_write ? "true" : "false")
       << ",\"prior_frame\":" << r.prior_frame
       << ",\"current_frame\":" << r.current_frame
       << ",\"occurrences\":" << r.occurrences << ",\"label\":";
    os << json_quoted(r.current_label);
    os << ",\"found_under\":";
    os << json_quoted(r.found_under);
    append_json_specs(os, r.eliciting_specs);
    if (!r.provenance_json.empty()) {
      os << ",\"provenance\":" << r.provenance_json;
    }
    if (!r.repro_file.empty()) {
      os << ",\"repro_file\":";
      os << json_quoted(r.repro_file);
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

void RaceLog::clear() {
  view_read_count_ = 0;
  determinacy_count_ = 0;
  view_read_races_.clear();
  determinacy_races_.clear();
  seen_view_reads_.clear();
  seen_determinacy_.clear();
}

void report_access_race(RaceLog* log, std::uintptr_t granule,
                        std::uintptr_t addr, AccessKind kind, bool view_aware,
                        bool prior_was_write, FrameId prior, FrameId current,
                        const char* label) {
  trace::emit_conflict(
      current, granule, addr, prior,
      (kind == AccessKind::kWrite ? trace::kConflictWrite : 0) |
          (view_aware ? trace::kConflictViewAware : 0) |
          (prior_was_write ? trace::kConflictPriorWrite : 0),
      label);
  log->report_determinacy(make_determinacy_race(
      addr, kind, view_aware, prior_was_write, prior, current, label));
}

}  // namespace rader
