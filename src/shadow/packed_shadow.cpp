#include "shadow/packed_shadow.hpp"

#include <algorithm>
#include <cstring>

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
  for (std::size_t s = 0; s < kShards; ++s) {
    shards_[s] = std::move(other.shards_[s]);
    other.shards_[s] = Shard{};
  }
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

PackedShadow::Chunk* PackedShadow::find_chunk(std::uintptr_t key) {
  if (key == cached_ckey_) return cached_chunk_;
  const std::uint64_t h = mix64(key);
  Shard& shard = shards_[h & (kShards - 1)];
  if (shard.table.empty()) return nullptr;
  const std::size_t mask = shard.table.size() - 1;
  for (std::size_t i = (h >> kShardBits) & mask;;
       i = (i + 1) & mask) {
    Chunk* chunk = shard.table[i].load(std::memory_order_acquire);
    if (chunk == nullptr) return nullptr;
    if (chunk->key == key) {
      cached_ckey_ = key;
      cached_chunk_ = chunk;
      return chunk;
    }
  }
}

void PackedShadow::shard_insert(Shard& shard, Chunk* chunk) {
  const std::size_t mask = shard.table.size() - 1;
  for (std::size_t i = (mix64(chunk->key) >> kShardBits) & mask;;
       i = (i + 1) & mask) {
    if (shard.table[i].load(std::memory_order_relaxed) == nullptr) {
      // Release publication: a foreign reader that observes the pointer
      // observes the fully initialized chunk behind it.
      shard.table[i].store(chunk, std::memory_order_release);
      return;
    }
  }
}

PackedShadow::Chunk* PackedShadow::ensure_chunk(std::uintptr_t key) {
  if (Chunk* chunk = find_chunk(key)) return chunk;
  const std::uint64_t h = mix64(key);
  Shard& shard = shards_[h & (kShards - 1)];
  if (shard.table.empty() ||
      (shard.count + 1) * 4 > shard.table.size() * 3) {
    // Grow (single writer).  The old table is RETIRED, not freed: a
    // foreign reader probing it mid-resize keeps a valid (if possibly
    // incomplete) view; every chunk it held is re-inserted into the new
    // table before any new chunk is published.
    const std::size_t new_size =
        shard.table.empty() ? 16 : shard.table.size() * 2;
    std::vector<std::atomic<Chunk*>> grown(new_size);
    std::swap(shard.table, grown);
    if (!grown.empty()) {
      for (auto& cell : grown) {
        if (Chunk* c = cell.load(std::memory_order_relaxed)) {
          shard_insert(shard, c);
        }
      }
      shard.retired.push_back(std::move(grown));
    }
  }
  Chunk* chunk = new Chunk();  // value-init: cells all null
  chunk->key = key;
  chunk->refs = 1;
  shard_insert(shard, chunk);
  ++shard.count;
  cached_ckey_ = key;
  cached_chunk_ = chunk;
  return chunk;
}

PackedShadow::Chunk* PackedShadow::unshare_chunk(Chunk* chunk) {
  // The chunk is shared with a fork: clone it so this space's writes
  // stay invisible to the sharers.  Pages are still shared — the clone
  // holds one more chunk-reference to each — and un-share individually
  // on their own first write.
  Chunk* fresh = new Chunk();  // value-init: cells all null
  fresh->key = chunk->key;
  fresh->refs = 1;
  for (std::size_t i = 0; i < kChunkPages; ++i) {
    Page* page = chunk->pages[i].load(std::memory_order_relaxed);
    if (page != nullptr) {
      ++page->refs;  // single-thread contract: space + forks share one
      fresh->pages[i].store(page, std::memory_order_relaxed);
    }
  }
  --chunk->refs;
  // Swap the clone into OUR shard table (the table is per space; the
  // sharers keep the original through their own tables).
  Shard& shard = shards_[mix64(fresh->key) & (kShards - 1)];
  const std::size_t mask = shard.table.size() - 1;
  for (std::size_t i = (mix64(fresh->key) >> kShardBits) & mask;;
       i = (i + 1) & mask) {
    if (shard.table[i].load(std::memory_order_relaxed) == chunk) {
      shard.table[i].store(fresh, std::memory_order_release);
      break;
    }
  }
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
    Page* page = chunk->pages[page_index(g)].load(std::memory_order_acquire);
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
  std::atomic<Page*>& cell = chunk->pages[page_index(g)];
  Page* page = cell.load(std::memory_order_relaxed);  // owner thread
  if (page == nullptr) {
    page = arena_->alloc();
    std::memset(page->slots, 0xff, sizeof page->slots);  // all empty
    page->epoch = epoch_;
    page->refs = 1;
    cell.store(page, std::memory_order_release);
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
    cell.store(fresh, std::memory_order_release);
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
    Page* page = chunk->pages[page_index(g)].load(std::memory_order_relaxed);
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
  for (std::size_t s = 0; s < kShards; ++s) {
    const Shard& mine = shards_[s];
    if (mine.table.empty()) continue;
    Shard& theirs = f.shards_[s];
    theirs.table = std::vector<std::atomic<Chunk*>>(mine.table.size());
    theirs.count = mine.count;
    for (std::size_t i = 0; i < mine.table.size(); ++i) {
      Chunk* chunk = mine.table[i].load(std::memory_order_relaxed);
      if (chunk != nullptr) {
        ++chunk->refs;  // single-thread contract: space + forks share one
        theirs.table[i].store(chunk, std::memory_order_release);
      }
    }
  }
  // The fork holds its own reference to every shared page (through the
  // shared chunks): the gauge counts mapped pages once per holder.
  pages_live_delta(static_cast<std::int64_t>(f.page_count_));
  return f;
}

void PackedShadow::release_directory() {
  for (std::size_t s = 0; s < kShards; ++s) {
    for (auto& cell : shards_[s].table) {
      Chunk* chunk = cell.load(std::memory_order_relaxed);
      if (chunk == nullptr) continue;
      if (--chunk->refs == 0) {
        for (std::size_t i = 0; i < kChunkPages; ++i) {
          Page* page = chunk->pages[i].load(std::memory_order_relaxed);
          if (page != nullptr && --page->refs == 0) arena_->release(page);
        }
        delete chunk;
      }
    }
    shards_[s] = Shard{};
  }
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
