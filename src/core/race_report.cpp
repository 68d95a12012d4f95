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

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t sum;
  return __builtin_add_overflow(a, b, &sum) ? UINT64_MAX : sum;
}

}  // namespace

template <class Race>
void RaceLog::Store<Race>::absorb(const Race& r, std::size_t max_stored) {
  auto key = r.key();
  const auto it = seen.find(key);
  if (it == seen.end()) {
    metrics::bump(metrics::Counter::kRacesReported);
    std::size_t idx = kDropped;
    if (races.size() < max_stored) {
      idx = races.size();
      races.push_back(r);
      add_spec(races.back().eliciting_specs, r.found_under);
    }
    seen.emplace(std::move(key), idx);
    return;
  }
  metrics::bump(metrics::Counter::kRacesDeduped);
  if (it->second == kDropped) return;
  Race& stored = races[it->second];
  stored.occurrences = saturating_add(stored.occurrences, r.occurrences);
  add_spec(stored.eliciting_specs, r.found_under);
  for (const auto& s : r.eliciting_specs) add_spec(stored.eliciting_specs, s);
  if (stored.provenance_json.empty() && !r.provenance_json.empty()) {
    stored.provenance_json = r.provenance_json;
    stored.provenance_text = r.provenance_text;
  }
}

template <class Race>
void RaceLog::Store<Race>::report(const Race& r, std::size_t max_stored) {
  count = saturating_add(count, r.occurrences);
  absorb(r, max_stored);
}

template <class Race>
void RaceLog::Store<Race>::merge(const Store& other, std::size_t max_stored) {
  count = saturating_add(count, other.count);
  for (const auto& r : other.races) absorb(r, max_stored);
}

template <class Race>
void RaceLog::Store<Race>::stamp_found_under(const std::string& spec) {
  for (auto& r : races) {
    if (r.found_under.empty()) r.found_under = spec;
    if (r.eliciting_specs.empty()) r.eliciting_specs.push_back(spec);
  }
}

template <class Race>
void RaceLog::Store<Race>::stamp_repro_file(const std::string& path) {
  for (auto& r : races) {
    if (r.repro_file.empty()) r.repro_file = path;
  }
}

template <class Race>
void RaceLog::Store<Race>::set_provenance(std::size_t index, std::string json,
                                          std::string text) {
  RADER_CHECK(index < races.size());
  races[index].provenance_json = std::move(json);
  races[index].provenance_text = std::move(text);
}

template <class Race>
void RaceLog::Store<Race>::clear() {
  races.clear();
  seen.clear();
  count = 0;
}

void RaceLog::report_view_read(const ViewReadRace& r) {
  view_reads_.report(r, max_stored_);
}

void RaceLog::report_determinacy(const DeterminacyRace& r) {
  determinacies_.report(r, max_stored_);
}

void RaceLog::merge(const RaceLog& other) {
  view_reads_.merge(other.view_reads_, max_stored_);
  determinacies_.merge(other.determinacies_, max_stored_);
}

void RaceLog::add_unstored_occurrences(std::uint64_t view_read,
                                       std::uint64_t determinacy) {
  view_reads_.count = saturating_add(view_reads_.count, view_read);
  determinacies_.count = saturating_add(determinacies_.count, determinacy);
}

void RaceLog::set_view_read_provenance(std::size_t index, std::string json,
                                       std::string text) {
  view_reads_.set_provenance(index, std::move(json), std::move(text));
}

void RaceLog::set_determinacy_provenance(std::size_t index, std::string json,
                                         std::string text) {
  determinacies_.set_provenance(index, std::move(json), std::move(text));
}

void RaceLog::stamp_found_under(const std::string& spec_description) {
  view_reads_.stamp_found_under(spec_description);
  determinacies_.stamp_found_under(spec_description);
}

void RaceLog::stamp_repro_file(const std::string& path) {
  view_reads_.stamp_repro_file(path);
  determinacies_.stamp_repro_file(path);
}

void RaceLog::clear() {
  view_reads_.clear();
  determinacies_.clear();
}

namespace {

const char* access_name(bool write) { return write ? "write" : "read"; }

// Each kind's own text sentence and leading JSON fields; the shared tail
// (replay handle, eliciting specs, provenance, reproducer) follows them.
void write_text(std::ostringstream& os, const ViewReadRace& r) {
  os << "  view-read race on reducer #" << r.reducer << ": read at '"
     << r.prior_label << "' (frame " << r.prior_frame
     << ") has different peers than read at '" << r.current_label
     << "' (frame " << r.current_frame << ")";
}

void write_text(std::ostringstream& os, const DeterminacyRace& r) {
  os << "  determinacy race at 0x" << std::hex << r.addr << std::dec << ": "
     << access_name(r.current_kind == AccessKind::kWrite) << " ('"
     << r.current_label << "', frame " << r.current_frame << ", "
     << (r.current_view_aware ? "view-aware" : "view-oblivious")
     << ") races with earlier " << access_name(r.prior_was_write)
     << " by frame " << r.prior_frame;
}

void write_json(std::ostringstream& os, const ViewReadRace& r) {
  os << "{\"reducer\":" << r.reducer << ",\"prior_frame\":" << r.prior_frame
     << ",\"current_frame\":" << r.current_frame
     << ",\"occurrences\":" << r.occurrences
     << ",\"prior_label\":" << json_quoted(r.prior_label)
     << ",\"current_label\":" << json_quoted(r.current_label);
}

void write_json(std::ostringstream& os, const DeterminacyRace& r) {
  os << "{\"addr\":" << r.addr << ",\"kind\":\""
     << access_name(r.current_kind == AccessKind::kWrite)
     << "\",\"view_aware\":" << (r.current_view_aware ? "true" : "false")
     << ",\"prior_was_write\":" << (r.prior_was_write ? "true" : "false")
     << ",\"prior_frame\":" << r.prior_frame
     << ",\"current_frame\":" << r.current_frame
     << ",\"occurrences\":" << r.occurrences
     << ",\"label\":" << json_quoted(r.current_label);
}

/// Each race's sentence, then " [replay: SPEC]" plus, when it was elicited
/// under several specs, " (+N more specs)", then its indented provenance.
template <class Race>
void append_text(std::ostringstream& os, const std::vector<Race>& races) {
  for (const Race& r : races) {
    write_text(os, r);
    if (!r.found_under.empty()) {
      os << " [replay: " << r.found_under << "]";
      if (r.eliciting_specs.size() > 1) {
        os << " (+" << r.eliciting_specs.size() - 1 << " more specs)";
      }
    }
    os << "\n";
    std::istringstream in(r.provenance_text);
    std::string line;
    while (std::getline(in, line)) os << "    " << line << "\n";
  }
}

template <class Race>
void append_json(std::ostringstream& os, const std::vector<Race>& races) {
  for (std::size_t i = 0; i < races.size(); ++i) {
    const Race& r = races[i];
    if (i != 0) os << ',';
    write_json(os, r);
    os << ",\"found_under\":" << json_quoted(r.found_under)
       << ",\"eliciting_specs\":[";
    for (std::size_t j = 0; j < r.eliciting_specs.size(); ++j) {
      if (j != 0) os << ',';
      os << json_quoted(r.eliciting_specs[j]);
    }
    os << ']';
    if (!r.provenance_json.empty()) {
      os << ",\"provenance\":" << r.provenance_json;
    }
    if (!r.repro_file.empty()) {
      os << ",\"repro_file\":" << json_quoted(r.repro_file);
    }
    os << '}';
  }
}

}  // namespace

std::string RaceLog::to_string() const {
  std::ostringstream os;
  os << "RaceLog: " << view_reads_.count << " view-read race occurrence(s) ("
     << view_reads_.races.size() << " distinct report(s)), "
     << determinacies_.count << " determinacy race occurrence(s) ("
     << determinacies_.races.size() << " distinct report(s))\n";
  append_text(os, view_reads_.races);
  append_text(os, determinacies_.races);
  return os.str();
}

std::string RaceLog::to_json() const {
  std::ostringstream os;
  os << "{\"view_read_occurrences\":" << view_reads_.count
     << ",\"determinacy_occurrences\":" << determinacies_.count
     << ",\"view_read_races\":[";
  append_json(os, view_reads_.races);
  os << "],\"determinacy_races\":[";
  append_json(os, determinacies_.races);
  os << "]}";
  return os.str();
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
