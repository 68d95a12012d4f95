// Race reports produced by the detection algorithms.
//
// Reports are deduplicated so a hot loop cannot flood the log, and capped in
// stored count while total occurrences keep being tallied — mirroring how
// practical tools such as Cilk Screen and the Nondeterminator report races.
//
// Deduplication key (the *race identity*): the raced-on location, the labels
// and kinds of the two accesses — NOT the frame ids, which are execution
// artifacts that shift between steal specifications (simulated steals insert
// kReduce frames and renumber everything after them).  Merging the per-spec
// logs of a specification-family sweep therefore collapses the same race
// elicited under many specs into ONE stored report that carries the full set
// of eliciting specifications (`eliciting_specs`) and the total number of
// dynamic observations (`occurrences`); `found_under` stays the first
// eliciting spec, the paper's replay handle.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/types.hpp"

namespace rader {

/// A view-read race: two reducer-reads at strands with different peer sets.
struct ViewReadRace {
  ReducerId reducer = kInvalidReducer;
  FrameId prior_frame = kInvalidFrame;    // frame of the earlier reducer-read
  FrameId current_frame = kInvalidFrame;  // frame of the later reducer-read
  std::string prior_label;                // source tag of the earlier read
  std::string current_label;              // source tag of the later read
  std::string found_under;                // first steal spec that elicited it
  std::vector<std::string> eliciting_specs;  // every spec that elicited it
  std::uint64_t occurrences = 1;          // dynamic observations collapsed in
  std::string provenance_json;  // raw JSON object from core/provenance ("" =
                                // not annotated); schema v2 races[].provenance
  std::string provenance_text;  // human rendering of the same record
  std::string repro_file;       // `.rprog` reproducer this race replays from
                                // ("" = none); schema v3 races[].repro_file
};

/// A determinacy race: two conflicting accesses on logically parallel
/// strands (with the parallel-views condition when the later strand is
/// view-aware).
struct DeterminacyRace {
  std::uintptr_t addr = 0;
  AccessKind current_kind = AccessKind::kRead;
  bool current_view_aware = false;
  bool prior_was_write = false;           // which shadow space hit
  FrameId prior_frame = kInvalidFrame;
  FrameId current_frame = kInvalidFrame;
  std::string current_label;
  std::string found_under;                // first steal spec that elicited it
  std::vector<std::string> eliciting_specs;  // every spec that elicited it
  std::uint64_t occurrences = 1;          // dynamic observations collapsed in
  std::string provenance_json;  // raw JSON object from core/provenance ("" =
                                // not annotated); schema v2 races[].provenance
  std::string provenance_text;  // human rendering of the same record
  std::string repro_file;       // `.rprog` reproducer this race replays from
                                // ("" = none); schema v3 races[].repro_file
};

/// Detector-side constructors (the remaining fields — found_under,
/// eliciting_specs, occurrences — are filled by stamping and merging).
inline ViewReadRace make_view_read_race(ReducerId reducer,
                                        FrameId prior_frame,
                                        FrameId current_frame,
                                        std::string prior_label,
                                        std::string current_label) {
  ViewReadRace r;
  r.reducer = reducer;
  r.prior_frame = prior_frame;
  r.current_frame = current_frame;
  r.prior_label = std::move(prior_label);
  r.current_label = std::move(current_label);
  return r;
}

inline DeterminacyRace make_determinacy_race(std::uintptr_t addr,
                                             AccessKind current_kind,
                                             bool current_view_aware,
                                             bool prior_was_write,
                                             FrameId prior_frame,
                                             FrameId current_frame,
                                             std::string current_label) {
  DeterminacyRace r;
  r.addr = addr;
  r.current_kind = current_kind;
  r.current_view_aware = current_view_aware;
  r.prior_was_write = prior_was_write;
  r.prior_frame = prior_frame;
  r.current_frame = current_frame;
  r.current_label = std::move(current_label);
  return r;
}

class RaceLog {
 public:
  explicit RaceLog(std::size_t max_stored = 1024) : max_stored_(max_stored) {}

  void report_view_read(const ViewReadRace& r);
  void report_determinacy(const DeterminacyRace& r);

  /// Merge another log into this one (used when checking a program under
  /// many steal specifications).  Stored reports deduplicate by race
  /// identity; a duplicate's eliciting specs are unioned into the stored
  /// report and its occurrences added, so a family sweep yields one report
  /// per race no matter how many specifications elicit it.
  void merge(const RaceLog& other);

  /// Wire-restore support (core/report_wire.hpp): add occurrences that were
  /// tallied but never stored — a serialized log whose identity count hit
  /// the storage cap carries larger totals than its stored reports sum to,
  /// and a faithful reconstruction must preserve those totals so merge()
  /// arithmetic stays exact across a process boundary.
  void add_unstored_occurrences(std::uint64_t view_read,
                                std::uint64_t determinacy) {
    view_read_count_ += view_read;
    determinacy_count_ += determinacy;
  }

  /// Stamp every stored report with the steal specification it was found
  /// under — the paper's replay feature: "Rader reports the labels
  /// corresponding to the stolen continuations that triggered the race,
  /// making it easy to repeat the run for regression tests."  Fills
  /// `found_under` (if empty) and seeds `eliciting_specs` (if empty).
  void stamp_found_under(const std::string& spec_description);

  /// Stamp every stored report with the `.rprog` reproducer file it came
  /// from (`rader --repro=FILE` does this so schema-v3 reports carry
  /// races[].repro_file).  Fills only empty repro_file fields.
  void stamp_repro_file(const std::string& path);

  bool any() const {
    return view_read_count_ != 0 || determinacy_count_ != 0;
  }
  std::uint64_t view_read_count() const { return view_read_count_; }
  std::uint64_t determinacy_count() const { return determinacy_count_; }

  const std::vector<ViewReadRace>& view_read_races() const {
    return view_read_races_;
  }
  const std::vector<DeterminacyRace>& determinacy_races() const {
    return determinacy_races_;
  }

  /// Attach a provenance record (core/provenance) to a stored report.
  /// `json` is a raw JSON object embedded verbatim under the race's
  /// "provenance" key (report schema v2); `text` is its human rendering.
  void set_view_read_provenance(std::size_t index, std::string json,
                                std::string text);
  void set_determinacy_provenance(std::size_t index, std::string json,
                                  std::string text);

  /// Human-readable multi-line summary.
  std::string to_string() const;

  /// Machine-readable JSON (counts plus the stored reports).
  std::string to_json() const;

  void clear();

 private:
  // Race-identity keys: location + access labels + kinds, frame-free (see
  // the file comment).  Real equality, not raw hashes, so the dedup cannot
  // be fooled by a 64-bit collision.
  struct ViewReadKey {
    ReducerId reducer;
    std::string prior_label;
    std::string current_label;
    bool operator==(const ViewReadKey&) const = default;
  };
  struct DeterminacyKey {
    std::uintptr_t addr;
    AccessKind current_kind;
    bool current_view_aware;
    bool prior_was_write;
    std::string current_label;
    bool operator==(const DeterminacyKey&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const ViewReadKey& k) const;
    std::size_t operator()(const DeterminacyKey& k) const;
  };

  // Sentinel index: race identity seen but its report was dropped by the
  // storage cap (occurrences for it still tally in the global counters).
  static constexpr std::size_t kDropped = static_cast<std::size_t>(-1);

  /// Store `r` or fold it into the stored report with the same identity.
  /// Does NOT touch the occurrence counters (callers differ: a detector
  /// report adds `r.occurrences`; a merge adds the whole other log's total).
  void absorb_view_read(const ViewReadRace& r);
  void absorb_determinacy(const DeterminacyRace& r);

  std::size_t max_stored_;
  std::uint64_t view_read_count_ = 0;
  std::uint64_t determinacy_count_ = 0;
  std::vector<ViewReadRace> view_read_races_;
  std::vector<DeterminacyRace> determinacy_races_;
  std::unordered_map<ViewReadKey, std::size_t, KeyHash> seen_view_reads_;
  std::unordered_map<DeterminacyKey, std::size_t, KeyHash> seen_determinacy_;
};

/// Record one determinacy race found by an access check (SP-bags, SP-order,
/// SP+): the trace's conflict event for `granule`, then the log entry.
void report_access_race(RaceLog* log, std::uintptr_t granule,
                        std::uintptr_t addr, AccessKind kind, bool view_aware,
                        bool prior_was_write, FrameId prior, FrameId current,
                        const char* label);

}  // namespace rader
