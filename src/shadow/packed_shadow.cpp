#include "shadow/packed_shadow.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "support/hash.hpp"
#include "support/metrics.hpp"

namespace rader::shadow {

namespace {

void pages_live_delta(std::int64_t n) {
  if (n != 0) metrics::gauge_add(metrics::Gauge::kShadowPagesLive, n);
}

}  // namespace

// ---- PageArena -------------------------------------------------------------

PackedShadow::Page* PackedShadow::PageArena::alloc() {
  if (free_list != nullptr) {
    Page* page = free_list;
    free_list = page->next_free;
    return page;
  }
  constexpr std::size_t kSlabPages = 16;
  if (slabs.empty() || next_in_slab == kSlabPages) {
    // Default-initialized (not value-initialized): every live field is
    // overwritten before first use, and zeroing 32 KiB x 16 here would
    // double the first-touch cost.
    slabs.emplace_back(new Page[kSlabPages]);
    next_in_slab = 0;
  }
  return &slabs.back()[next_in_slab++];
}

void PackedShadow::PageArena::release(Page* page) {
  page->next_free = free_list;
  free_list = page;
}

// ---- Construction / rule of five -------------------------------------------

PackedShadow::PackedShadow() : arena_(std::make_shared<PageArena>()) {}

void PackedShadow::steal_from(PackedShadow&& other) {
  arena_ = std::move(other.arena_);
  chunks_ = std::move(other.chunks_);
  other.chunks_.clear();
  chunk_count_ = std::exchange(other.chunk_count_, 0);
  epoch_ = other.epoch_;
  page_count_ = other.page_count_;
  cached_ckey_ = other.cached_ckey_;
  cached_chunk_ = other.cached_chunk_;
  cached_pkey_ = other.cached_pkey_;
  cached_page_ = other.cached_page_;
  wcached_pkey_ = other.wcached_pkey_;
  wcached_slots_ = other.wcached_slots_;
  // The source must count nothing out on destruction.
  other.page_count_ = 0;
  other.epoch_ = 1;
  other.arena_ = std::make_shared<PageArena>();
  other.invalidate_caches();
}

PackedShadow::PackedShadow(PackedShadow&& other) noexcept {
  steal_from(std::move(other));
}

PackedShadow& PackedShadow::operator=(PackedShadow&& other) noexcept {
  if (this != &other) {
    release_directory();
    steal_from(std::move(other));
  }
  return *this;
}

PackedShadow::~PackedShadow() { release_directory(); }

// ---- Directory -------------------------------------------------------------

PackedShadow::Chunk*& PackedShadow::table_cell(std::uintptr_t key) {
  const std::size_t mask = chunks_.size() - 1;
  for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
    Chunk*& cell = chunks_[i];
    if (cell == nullptr || cell->key == key) return cell;
  }
}

PackedShadow::Chunk* PackedShadow::find_chunk(std::uintptr_t key) {
  if (key == cached_ckey_) return cached_chunk_;
  if (chunks_.empty()) return nullptr;
  Chunk* chunk = table_cell(key);
  if (chunk != nullptr) {
    cached_ckey_ = key;
    cached_chunk_ = chunk;
  }
  return chunk;
}

PackedShadow::Chunk* PackedShadow::ensure_chunk(std::uintptr_t key) {
  if (Chunk* chunk = find_chunk(key)) return chunk;
  if ((chunk_count_ + 1) * 4 > chunks_.size() * 3) {
    // Grow: rehash every chunk into a table twice the size.
    std::vector<Chunk*> old(chunks_.empty() ? 16 : chunks_.size() * 2);
    old.swap(chunks_);
    for (Chunk* c : old) {
      if (c != nullptr) table_cell(c->key) = c;
    }
  }
  Chunk* chunk = new Chunk();  // value-init: cells all null
  chunk->key = key;
  chunk->refs = 1;
  table_cell(key) = chunk;
  ++chunk_count_;
  cached_ckey_ = key;
  cached_chunk_ = chunk;
  return chunk;
}

PackedShadow::Chunk* PackedShadow::unshare_chunk(Chunk* chunk) {
  // The chunk is shared with a fork: clone it so this space's writes
  // stay invisible to the sharers.  Pages are still shared — the clone
  // holds one more chunk-reference to each — and un-share individually
  // on their own first write.
  Chunk* fresh = new Chunk(*chunk);
  fresh->refs = 1;
  for (Page* page : fresh->pages) {
    if (page != nullptr) ++page->refs;
  }
  --chunk->refs;
  // Swap the clone into OUR table (the table is per space; the sharers
  // keep the original through their own tables).
  table_cell(fresh->key) = fresh;
  cached_ckey_ = fresh->key;
  cached_chunk_ = fresh;
  return fresh;
}

// ---- Slot access -----------------------------------------------------------

const std::uint64_t* PackedShadow::peek_run(std::uintptr_t g) {
  const std::uintptr_t pkey = page_key(g);
  if (pkey != cached_pkey_) {
    Chunk* chunk = find_chunk(chunk_key(g));
    if (chunk == nullptr) return nullptr;
    Page* page = chunk->pages[page_index(g)];
    if (page == nullptr) return nullptr;
    cached_pkey_ = pkey;
    cached_page_ = page;
  }
  // The cached page may have gone stale since it was cached (epoch bump):
  // validate on every hit — a stale page reads as all-empty.
  if (cached_page_->epoch != epoch_) return nullptr;
  return &cached_page_->slots[slot_index(g)];
}

std::uint64_t* PackedShadow::writable_run(std::uintptr_t g) {
  const std::uintptr_t pkey = page_key(g);
  if (pkey == wcached_pkey_) return &wcached_slots_[slot_index(g)];
  Chunk* chunk = ensure_chunk(chunk_key(g));
  if (chunk->refs > 1) chunk = unshare_chunk(chunk);
  Page*& cell = chunk->pages[page_index(g)];
  Page* page = cell;
  if (page == nullptr) {
    page = arena_->alloc();
    std::memset(page->slots, 0xff, sizeof page->slots);  // all empty
    page->epoch = epoch_;
    page->refs = 1;
    cell = page;
    ++page_count_;
    metrics::bump(metrics::Counter::kShadowPagesTouched);
    pages_live_delta(1);
  } else if (page->refs > 1) {
    // Referenced by a sharer's chunk too: un-share before mutating.  A
    // stale shared page needs no copy — its contents read as empty on
    // both sides — just a fresh reset page.
    Page* fresh = arena_->alloc();
    if (page->epoch == epoch_) {
      std::memcpy(fresh->slots, page->slots, sizeof fresh->slots);
      metrics::bump(metrics::Counter::kShadowPagesCoW);
    } else {
      std::memset(fresh->slots, 0xff, sizeof fresh->slots);
      metrics::bump(metrics::Counter::kShadowPageResets);
    }
    fresh->epoch = epoch_;
    fresh->refs = 1;
    --page->refs;
    cell = fresh;
    page = fresh;
    // page_count_ and the gauge are unchanged: one reference was swapped
    // for another.
  } else if (page->epoch != epoch_) {
    // Exclusive but stale: lazy reset in place, re-stamped to the current
    // epoch (epochs only grow, so the page can never revalidate old data).
    std::memset(page->slots, 0xff, sizeof page->slots);
    page->epoch = epoch_;
    metrics::bump(metrics::Counter::kShadowPageResets);
  }
  // Keep the read cache coherent: it may point at a page this space just
  // replaced or reset.
  cached_pkey_ = pkey;
  cached_page_ = page;
  wcached_pkey_ = pkey;
  wcached_slots_ = page->slots;
  return &page->slots[slot_index(g)];
}

std::uint64_t* PackedShadow::clearable_run(std::uintptr_t g) {
  if (page_key(g) != wcached_pkey_) {
    Chunk* chunk = find_chunk(chunk_key(g));
    if (chunk == nullptr) return nullptr;
    Page* page = chunk->pages[page_index(g)];
    if (page == nullptr || page->epoch != epoch_) return nullptr;
  }
  return writable_run(g);
}

void PackedShadow::clear_range(std::uintptr_t first, std::uintptr_t last) {
  // `last` may be the top granule index: step page by page and stop after
  // the page holding it, so the cursor never wraps.
  for (std::uintptr_t g = first;;) {
    const std::uintptr_t end = std::min(last, g | (kPageSlots - 1));
    if (std::uint64_t* run = clearable_run(g)) {
      std::fill_n(run, end - g + 1, kEmptySlot);
    }
    if (end == last) return;
    g = end + 1;
  }
}

// ---- Bulk operations -------------------------------------------------------

void PackedShadow::clear() {
  if (epoch_ == ~std::uint64_t{0}) {
    // Epoch exhaustion (2^64 - 1 clears, or a test jumping the counter):
    // degrade to one full release and restart the epochs.
    release_directory();
    epoch_ = 1;
  } else {
    ++epoch_;
    metrics::bump(metrics::Counter::kShadowEpochClears);
  }
  invalidate_caches();
}

void PackedShadow::set_epoch_for_testing(std::uint64_t epoch) {
  RADER_CHECK_MSG(epoch >= epoch_, "epochs only grow");
  epoch_ = epoch;
  invalidate_caches();
}

PackedShadow PackedShadow::fork() const {
  // The fork starts with no proven-exclusive chunk or page, and neither
  // do we: our write cache may hold a page the fork now shares.
  wcached_pkey_ = kNoKey;
  wcached_slots_ = nullptr;
  PackedShadow f;
  f.arena_ = arena_;
  f.epoch_ = epoch_;
  f.page_count_ = page_count_;
  f.chunks_ = chunks_;
  f.chunk_count_ = chunk_count_;
  for (Chunk* chunk : chunks_) {
    if (chunk != nullptr) ++chunk->refs;
  }
  // The fork holds its own reference to every shared page (through the
  // shared chunks): the gauge counts mapped pages once per holder.
  pages_live_delta(static_cast<std::int64_t>(f.page_count_));
  return f;
}

void PackedShadow::release_directory() {
  for (Chunk* chunk : chunks_) {
    if (chunk == nullptr || --chunk->refs != 0) continue;
    for (Page* page : chunk->pages) {
      if (page != nullptr && --page->refs == 0) arena_->release(page);
    }
    delete chunk;
  }
  chunks_.clear();
  chunk_count_ = 0;
  pages_live_delta(-static_cast<std::int64_t>(page_count_));
  page_count_ = 0;
  invalidate_caches();
}

void PackedShadow::invalidate_caches() {
  cached_ckey_ = kNoKey;
  cached_chunk_ = nullptr;
  cached_pkey_ = kNoKey;
  cached_page_ = nullptr;
  wcached_pkey_ = kNoKey;
  wcached_slots_ = nullptr;
}

}  // namespace rader::shadow
