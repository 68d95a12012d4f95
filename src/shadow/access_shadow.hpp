// Reader/writer shadow facade over the two slot encodings.
//
// The detectors used to own a PAIR of shadow::ShadowSpace instances
// (reader + writer).  AccessShadow keeps that logical interface — two
// uint32 payload maps with kEmpty sentinels — but routes it to one of:
//
//  * SlotEncoding::kPacked — a single PackedShadow whose 64-bit slots
//    hold both fields plus the access extent (packed_shadow.hpp).  The
//    production default: one lookup per granule instead of two, array-
//    indexed chunk pages instead of hash probes, O(1) epoch clear.
//  * SlotEncoding::kLegacy — the original pair of ShadowSpaces, kept
//    alive as the reference implementation the shadow-equivalence
//    battery (tests/shadow/shadow_equivalence_test.cpp) diffs against.
//
// Both encodings normalize "no payload" to kEmpty = uint32(-1), so
// detector comparisons (and therefore race reports) are identical by
// construction; the battery proves it byte-for-byte on random programs.
//
// The extent offsets are recorded only by the packed backend (the legacy
// slots have no room); callers must treat them as diagnostics, never as
// report inputs — see the granularity regression tests.
//
// check_access is the race check and shadow update behind every
// detector's access, and the hot path.  Under kPacked it walks a page-run as
// maximal runs of identical 64-bit slots: one decision, one encode and one
// fill per run, with reports still made per granule.  Under kLegacy it is
// a plain per-granule loop.  tests/shadow/access_walk_test.cpp holds both
// to a per-granule reference.
#pragma once

#include <algorithm>
#include <cstdint>

#include "shadow/packed_shadow.hpp"
#include "shadow/shadow_space.hpp"
#include "support/metrics.hpp"

namespace rader::shadow {

enum class SlotEncoding : int {
  kPacked = 0,  // production: combined 8-byte slots
  kLegacy = 1,  // reference: paired ShadowSpaces
};

/// Process-wide default used by AccessShadow's default constructor.
/// Set by tests/benches before constructing detectors; detectors built
/// concurrently with a change may see either value (atomic, relaxed).
SlotEncoding default_encoding();
void set_default_encoding(SlotEncoding encoding);

/// Two logical payload maps (reader + writer) behind one interface.
/// Same single-thread ownership contract as the backends: a facade and
/// its forks stay on one thread.
class AccessShadow {
 public:
  using Payload = std::uint32_t;
  static constexpr Payload kEmpty = static_cast<Payload>(-1);
  /// Largest id storable under EITHER encoding (the packed field is the
  /// binding constraint).
  static constexpr Payload kMaxPayload = PackedShadow::kMaxPayload;

  AccessShadow() : AccessShadow(default_encoding()) {}
  explicit AccessShadow(SlotEncoding encoding) : enc_(encoding) {}
  AccessShadow(const AccessShadow&) = delete;
  AccessShadow& operator=(const AccessShadow&) = delete;
  AccessShadow(AccessShadow&&) noexcept = default;
  AccessShadow& operator=(AccessShadow&&) noexcept = default;

  SlotEncoding encoding() const { return enc_; }

  Payload reader(std::uintptr_t g) {
    return enc_ == SlotEncoding::kPacked ? packed_.reader(g)
                                         : legacy_reader_.get(g);
  }
  Payload writer(std::uintptr_t g) {
    return enc_ == SlotEncoding::kPacked ? packed_.writer(g)
                                         : legacy_writer_.get(g);
  }

  /// `offset` is the first byte of the access within granule `g`;
  /// recorded (clamped) by the packed backend, ignored by the legacy one.
  void set_reader(std::uintptr_t g, Payload v, unsigned offset = 0) {
    if (enc_ == SlotEncoding::kPacked) {
      packed_.set_reader(g, v, offset);
    } else {
      legacy_reader_.set(g, v);
    }
  }
  void set_writer(std::uintptr_t g, Payload v, unsigned offset = 0) {
    if (enc_ == SlotEncoding::kPacked) {
      packed_.set_writer(g, v, offset);
    } else {
      legacy_writer_.set(g, v);
    }
  }

  /// Recorded extents (packed backend only; 0 under kLegacy).
  unsigned reader_offset(std::uintptr_t g) {
    return enc_ == SlotEncoding::kPacked ? packed_.reader_offset(g) : 0;
  }
  unsigned writer_offset(std::uintptr_t g) {
    return enc_ == SlotEncoding::kPacked ? packed_.writer_offset(g) : 0;
  }

  /// Reset both fields of one granule.
  void clear_granule(std::uintptr_t g) {
    if (enc_ == SlotEncoding::kPacked) {
      packed_.clear_granule(g);
    } else {
      legacy_reader_.set(g, kEmpty);
      legacy_writer_.set(g, kEmpty);
    }
  }

  /// Reset granules [first, last] (the detectors' on_clear path): one fill
  /// per present page under kPacked, per-granule clears under kLegacy.
  void clear_range(std::uintptr_t first, std::uintptr_t last) {
    if (enc_ == SlotEncoding::kPacked) {
      packed_.clear_range(first, last);
      return;
    }
    for (std::uintptr_t g = first;; ++g) {
      clear_granule(g);
      if (g == last) break;
    }
  }

  /// A detector's verdict on one prior (reader or writer) id for the
  /// access being checked.
  struct Verdict {
    bool races;    // the prior access is logically parallel: report it
    bool replace;  // the current access supersedes it in the shadow
  };

  /// The race check and shadow update shared by SP-bags, SP-order and
  /// SP+.  For each granule g of the `size` bytes at `addr`, in ascending
  /// order: a read reports a racing writer, then records `cur` as reader if
  /// the reader is to be replaced; a write reports a racing reader, then a
  /// racing writer, then records `cur` as writer if the writer is to be
  /// replaced.  Empty priors never race and are always replaced (`classify`
  /// never sees kEmpty).  `report(g, b, prior, prior_was_write)` gets the
  /// access's first byte b within g.  Counts the access in
  /// detector.accesses_instrumented and the access-bytes histogram.
  ///
  /// Under kPacked the walk goes one page-run at a time (peek_run, then
  /// writable_run once a store is due) and splits each page-run into
  /// maximal runs of identical slots.  A run is decided once (memoized on
  /// its (reader, writer) pair, so a next run that differs only in offsets
  /// reuses the decision), reports per granule when it races, and is
  /// stored with one fill.  Every granule of a run gets the same new slot
  /// except the access's first granule, the only one whose extent offset
  /// can be non-zero.  So a multi-byte access by one strand pays one
  /// disjoint-set find and one fill, not one of each per granule.  Under
  /// kLegacy every granule is classified afresh, which makes the
  /// encoding-equivalence battery a check of that memo too.
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
    if (enc_ == SlotEncoding::kLegacy) {
      for (std::uintptr_t h = first;; ++h) {
        const Payload r = legacy_reader_.get(h);
        const Payload w = legacy_writer_.get(h);
        const unsigned d = decide(r, w);
        if (d & kReaderRaces) report(h, first_byte(h), r, false);
        if (d & kWriterRaces) report(h, first_byte(h), w, true);
        if (d & kReplace) {
          (is_write ? legacy_writer_ : legacy_reader_).set(h, cur);
        }
        if (h == last) break;
      }
      return;
    }
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

  /// Bulk clear: O(1) under kPacked (epoch bump), page walk under kLegacy.
  void clear() {
    if (enc_ == SlotEncoding::kPacked) {
      packed_.clear();
    } else {
      legacy_reader_.clear();
      legacy_writer_.clear();
    }
  }

  /// Copy-on-write snapshot (both encodings share pages with the source).
  AccessShadow fork() const;

  /// Shadow pages referenced by this facade (both backends' accounting).
  std::size_t page_count() const {
    return enc_ == SlotEncoding::kPacked
               ? packed_.page_count()
               : legacy_reader_.page_count() + legacy_writer_.page_count();
  }

  /// Packed backend escape hatch for epoch/geometry tests.
  PackedShadow& packed_for_testing() { return packed_; }

 private:
  SlotEncoding enc_;
  PackedShadow packed_;
  ShadowSpace legacy_reader_;
  ShadowSpace legacy_writer_;
};

}  // namespace rader::shadow
