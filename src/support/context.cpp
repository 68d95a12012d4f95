#include "support/context.hpp"

#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace rader::obs {

Scope::Scope(trace::Session* session, std::string buffer_name)
    : prev_(detail::tl_ctx) {
  detail::tl_ctx.session = session;
  detail::tl_ctx.buffer =
      session != nullptr ? session->make_buffer(std::move(buffer_name))
                         : nullptr;
}

Fanout::Fanout(const Context& parent, unsigned count,
               const char* buffer_prefix, unsigned first)
    : parent_(parent),
      first_(first),
      registries_(count),
      profilers_(parent.profiler != nullptr ? count : 0) {
  if (parent.session == nullptr) return;
  buffers_.reserve(count);
  for (unsigned w = first; w < first + count; ++w) {
    buffers_.push_back(
        parent.session->make_buffer(buffer_prefix + std::to_string(w)));
  }
}

Fanout::~Fanout() = default;

Context Fanout::context(unsigned w) {
  const unsigned i = w - first_;
  Context ctx;
  ctx.registry = &registries_[i];
  ctx.profiler = profilers_.empty() ? nullptr : &profilers_[i];
  ctx.session = parent_.session;
  ctx.buffer = buffers_.empty() ? nullptr : buffers_[i];
  ctx.worker = w;
  return ctx;
}

void Fanout::fold() {
  for (const prof::Profiler& p : profilers_) {
    parent_.profiler->absorb(p.root());
  }
  if (parent_.registry == nullptr) return;
  for (const metrics::Registry& r : registries_) {
    parent_.registry->absorb(r.snapshot());
  }
}

}  // namespace rader::obs
