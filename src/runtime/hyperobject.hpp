// Engine-facing view of a reducer hyperobject.
//
// The runtime manages reducer *views* without knowing their types: it needs
// to create identity views after simulated steals, reduce adjacent views
// (invoking user code), and destroy reduced-away views.  The typed
// rader::reducer<Monoid> template (src/reducers) implements this interface.
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/types.hpp"

namespace rader {

class HyperobjectBase {
 public:
  virtual ~HyperobjectBase() = default;

  /// Allocate and return a fresh identity view (the monoid's e).  Runs user
  /// code; the engine brackets the call as a view-aware strand.
  virtual void* hyper_create_identity() = 0;

  /// left = left ⊗ right.  Runs user code; the engine brackets the call as a
  /// view-aware (Reduce) strand.  `right` is NOT destroyed here.
  virtual void hyper_reduce(void* left, void* right) = 0;

  /// Destroy a view previously returned by hyper_create_identity().  Must
  /// never be called on the leftmost view (which the reducer object owns).
  /// Implementations need not release the storage: rader::reducer places
  /// views in the deterministic view arena (runtime/view_arena.hpp) so that
  /// re-executions reuse the same addresses, and only runs the destructor.
  virtual void hyper_destroy(void* view) = 0;

  /// The leftmost view — the storage owned by the reducer object itself,
  /// holding its initial (and eventually final) value.
  virtual void* hyper_leftmost() = 0;

  /// Byte footprint of one view object (the runtime clears this range's
  /// shadow when it destroys a view, so heap reuse cannot manufacture
  /// false races).  Views owning further heap should shadow_clear it in
  /// their own destructors.
  virtual std::size_t hyper_view_size() const = 0;

  /// Source tag used in race reports that mention this reducer.
  virtual SrcTag hyper_tag() const { return SrcTag{"reducer"}; }

 private:
  friend class SerialEngine;
  // SerialEngine's binding cache: this reducer's ID in the run stamped
  // `bound_run_` (0 = never bound).  Only a cache: another engine, or a
  // later or nested run, overwrites it, and the engine then falls back to
  // its own reducer map, which stays authoritative.
  std::uint64_t bound_run_ = 0;
  ReducerId bound_id_ = kInvalidReducer;
};

}  // namespace rader
