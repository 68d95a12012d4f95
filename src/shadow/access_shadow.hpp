// The detectors' reader/writer shadow: the paper's two shadow spaces,
// "reader" and "writer", as one PackedShadow whose 64-bit slots hold both
// ids plus the access extent (packed_shadow.hpp).  The logical interface
// is two uint32 payload maps with kEmpty = uint32(-1) for "no payload".
//
// The extent offsets are diagnostics, never report inputs — see the
// granularity regression tests.
//
// check_access is the race check and shadow update behind every
// detector's access, and the hot path.  It walks a page-run as maximal
// runs of identical 64-bit slots: one decision, one encode and one fill
// per run, with reports still made per granule.
// tests/shadow/access_walk_test.cpp holds it to a per-granule reference,
// and tests/shadow/shadow_equivalence_test.cpp holds whole sweeps to the
// golden output of the original paired-map shadow.
#pragma once

#include <algorithm>
#include <cstdint>

#include "shadow/packed_shadow.hpp"
#include "support/metrics.hpp"

namespace rader::shadow {

/// Two logical payload maps (reader + writer) over one PackedShadow.
/// Same single-thread ownership contract as PackedShadow: a shadow and
/// its forks stay on one thread.
class AccessShadow {
 public:
  using Payload = std::uint32_t;
  static constexpr Payload kEmpty = PackedShadow::kEmpty;
  static constexpr Payload kMaxPayload = PackedShadow::kMaxPayload;

  AccessShadow() = default;
  AccessShadow(const AccessShadow&) = delete;
  AccessShadow& operator=(const AccessShadow&) = delete;
  AccessShadow(AccessShadow&&) noexcept = default;
  AccessShadow& operator=(AccessShadow&&) noexcept = default;

  Payload reader(std::uintptr_t g) { return packed_.reader(g); }
  Payload writer(std::uintptr_t g) { return packed_.writer(g); }

  /// `offset` is the first byte of the access within granule `g`,
  /// recorded clamped to the 4-bit extent field.
  void set_reader(std::uintptr_t g, Payload v, unsigned offset = 0) {
    packed_.set_reader(g, v, offset);
  }
  void set_writer(std::uintptr_t g, Payload v, unsigned offset = 0) {
    packed_.set_writer(g, v, offset);
  }

  /// Recorded extents (diagnostic).
  unsigned reader_offset(std::uintptr_t g) { return packed_.reader_offset(g); }
  unsigned writer_offset(std::uintptr_t g) { return packed_.writer_offset(g); }

  /// Reset both fields of one granule.
  void clear_granule(std::uintptr_t g) { packed_.clear_granule(g); }

  /// Reset granules [first, last] (the detectors' on_clear path): one fill
  /// per present page.
  void clear_range(std::uintptr_t first, std::uintptr_t last) {
    packed_.clear_range(first, last);
  }

  /// A detector's verdict on one prior (reader or writer) id for the
  /// access being checked.
  struct Verdict {
    bool races;    // the prior access is logically parallel: report it
    bool replace;  // the current access supersedes it in the shadow
  };

  /// The race check and shadow update shared by SP-bags and SP+.  For
  /// each granule g of the `size` bytes at `addr`, in ascending order: a
  /// read reports a racing writer, then records `cur` as reader if the
  /// reader is to be replaced; a write reports a racing reader, then a
  /// racing writer, then records `cur` as writer if the writer is to be
  /// replaced.  Empty priors never race and are always replaced (`classify`
  /// never sees kEmpty).  `report(g, b, prior, prior_was_write)` gets the
  /// access's first byte b within g.  Counts the access in
  /// detector.accesses_instrumented and the access-bytes histogram.
  ///
  /// The walk goes one page-run at a time (peek_run, then writable_run
  /// once a store is due) and splits each page-run into maximal runs of
  /// identical slots.  A run is decided once (memoized on
  /// its (reader, writer) pair, so a next run that differs only in offsets
  /// reuses the decision), reports per granule when it races, and is
  /// stored with one fill.  Every granule of a run gets the same new slot
  /// except the access's first granule, the only one whose extent offset
  /// can be non-zero.  So a multi-byte access by one strand pays one
  /// disjoint-set find and one fill, not one of each per granule.
  template <class Classify, class Report>
  void check_access(bool is_write, std::uintptr_t addr, std::size_t size,
                    unsigned granule_bits, Payload cur, Classify&& classify,
                    Report&& report) {
    if (size == 0) return;
    metrics::bump(metrics::Counter::kAccessesInstrumented);
    metrics::record(metrics::Histogram::kAccessBytes, size);
    enum : unsigned { kReaderRaces = 1, kWriterRaces = 2, kReplace = 4 };
    const auto decide = [&](Payload r, Payload w) {
      const Verdict empty{false, true};
      const Verdict vr = r == kEmpty ? empty : classify(r);
      const Verdict vw = w == kEmpty ? empty : classify(w);
      return (is_write && vr.races ? kReaderRaces : 0u) |
             (vw.races ? kWriterRaces : 0u) |
             ((is_write ? vw : vr).replace ? kReplace : 0u);
    };
    const std::uintptr_t first = addr >> granule_bits;
    const std::uintptr_t last = access_last_byte(addr, size) >> granule_bits;
    // The first byte of THIS access within h (the byte itself when
    // granule_bits=0), so distinct races inside one granule keep distinct
    // dedup identities; its offset is stored as the extent.
    const auto first_byte = [&](std::uintptr_t h) {
      return h == first ? addr : h << granule_bits;
    };
    const auto store = [&](std::uint64_t slot, unsigned off) {
      return is_write ? PackedShadow::with_writer(slot, cur, off)
                      : PackedShadow::with_reader(slot, cur, off);
    };
    const auto first_off =
        static_cast<unsigned>(addr - (first << granule_bits));
    std::uint64_t memo_pair = ~std::uint64_t{0};  // matches no masked slot
    unsigned memo = 0;
    // One page-run per pass; stop after the run holding `last`, which may
    // be the top granule index, so the cursor never wraps.
    for (std::uintptr_t g = first;;) {
      const std::uintptr_t end =
          std::min(last, g | (PackedShadow::kPageSlots - 1));
      const std::size_t n = end - g + 1;
      const std::uint64_t* in = packed_.peek_run(g);
      std::uint64_t* out = nullptr;
      for (std::size_t i = 0; i < n;) {
        // Slots [i, j) of the page-run are one maximal run equal to `slot`.
        const std::uint64_t slot = in == nullptr ? PackedShadow::kEmptySlot
                                                 : in[i];
        std::size_t j = in == nullptr ? n : i + 1;
        while (j < n && in[j] == slot) ++j;
        if ((slot & PackedShadow::kPairMask) != memo_pair) {
          memo_pair = slot & PackedShadow::kPairMask;
          memo = decide(PackedShadow::reader_of(slot),
                        PackedShadow::writer_of(slot));
        }
        if (memo & (kReaderRaces | kWriterRaces)) {
          const Payload r = PackedShadow::reader_of(slot);
          const Payload w = PackedShadow::writer_of(slot);
          for (std::size_t x = i; x < j; ++x) {
            const std::uintptr_t h = g + x;
            if (memo & kReaderRaces) report(h, first_byte(h), r, false);
            if (memo & kWriterRaces) report(h, first_byte(h), w, true);
          }
        }
        if (memo & kReplace) {
          if (out == nullptr) in = out = packed_.writable_run(g);
          std::size_t from = i;
          if (g + i == first && first_off != 0) {
            out[from++] = store(slot, first_off);
          }
          std::fill(out + from, out + j, store(slot, 0));
        }
        i = j;
      }
      if (end == last) break;
      g = end + 1;
    }
  }

  /// Bulk clear: O(1) epoch bump.
  void clear() { packed_.clear(); }

  /// Copy-on-write snapshot sharing every page with the source.
  AccessShadow fork() const {
    AccessShadow f;
    f.packed_ = packed_.fork();
    return f;
  }

  /// Escape hatch for epoch/geometry tests.
  PackedShadow& packed_for_testing() { return packed_; }

 private:
  PackedShadow packed_;
};

}  // namespace rader::shadow
