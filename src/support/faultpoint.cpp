#include "support/faultpoint.hpp"

#include <time.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

namespace rader::faultpoint {

namespace {

struct Fault {
  std::string site;
  Kind kind = Kind::kCrash;
  bool match_all = false;
  std::uint64_t match = 0;
};

std::mutex g_mu;
std::vector<Fault> g_faults;
// Fast path: fire() is on the sweep's per-spec path, so the disarmed case
// must stay one relaxed load.
std::atomic<std::size_t> g_armed_count{0};
std::once_flag g_env_once;

bool parse_one(const std::string& text, Fault* out, std::string* error) {
  const auto c1 = text.find(':');
  const auto c2 = c1 == std::string::npos ? c1 : text.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) {
    if (error != nullptr) *error = "expected site:kind:match in '" + text + "'";
    return false;
  }
  out->site = text.substr(0, c1);
  const std::string kind = text.substr(c1 + 1, c2 - c1 - 1);
  const std::string match = text.substr(c2 + 1);
  if (kind == "crash") {
    out->kind = Kind::kCrash;
  } else if (kind == "hang") {
    out->kind = Kind::kHang;
  } else if (kind == "oom") {
    out->kind = Kind::kOom;
  } else {
    if (error != nullptr) *error = "unknown fault kind '" + kind + "'";
    return false;
  }
  if (out->site.empty() || match.empty()) {
    if (error != nullptr) *error = "empty site or match in '" + text + "'";
    return false;
  }
  if (match == "*") {
    out->match_all = true;
    return true;
  }
  char* end = nullptr;
  out->match = std::strtoull(match.c_str(), &end, 10);
  if (end == match.c_str() || *end != '\0') {
    if (error != nullptr) *error = "bad match value '" + match + "'";
    return false;
  }
  return true;
}

void ensure_env_parsed() {
  std::call_once(g_env_once, [] {
    const char* env = std::getenv("RADER_FAULTS");
    if (env == nullptr || env[0] == '\0') return;
    // A malformed environment spec is ignored wholesale rather than armed
    // partially — misbehaving on purpose must be all-or-nothing.
    arm(env, nullptr);
  });
}

// Exempt from UBSan, which would report the null store and abort before the
// fault: the crash must stay a genuine SIGSEGV.
[[noreturn]] __attribute__((no_sanitize_undefined)) void do_crash() {
  volatile int* p = nullptr;
  *p = 42;  // genuine SIGSEGV: exercises the fatal-signal handler path
  std::abort();
}

[[noreturn]] void do_hang() {
  for (;;) {
    timespec ts{0, 10'000'000};  // 10ms: hang without burning CPU
    nanosleep(&ts, nullptr);
  }
}

[[noreturn]] void do_oom() {
  // Allocate-and-touch in 1 MiB chunks up to a bounded cap.  Under a child
  // RLIMIT_AS the loop hits the limit for real (operator new throws);
  // without one, the synthetic throw below keeps the host machine safe.
  constexpr std::size_t kChunk = 1u << 20;
  constexpr std::size_t kCapChunks = 256;  // 256 MiB ceiling
  std::vector<std::unique_ptr<volatile char[]>> keep;
  for (std::size_t i = 0; i < kCapChunks; ++i) {
    keep.emplace_back(new volatile char[kChunk]);
    for (std::size_t b = 0; b < kChunk; b += 4096) keep.back()[b] = 1;
  }
  throw std::bad_alloc();
}

}  // namespace

bool arm(const std::string& spec, std::string* error) {
  std::vector<Fault> parsed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto comma = spec.find(',', pos);
    const std::string one =
        spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    if (!one.empty()) {
      Fault f;
      if (!parse_one(one, &f, error)) return false;
      parsed.push_back(std::move(f));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& f : parsed) g_faults.push_back(std::move(f));
  g_armed_count.store(g_faults.size(), std::memory_order_release);
  return true;
}

void disarm_all() {
  // Mark the environment consumed so a later fire() cannot re-arm it.
  std::call_once(g_env_once, [] {});
  std::lock_guard<std::mutex> lock(g_mu);
  g_faults.clear();
  g_armed_count.store(0, std::memory_order_release);
}

bool any_armed() {
  ensure_env_parsed();
  return g_armed_count.load(std::memory_order_acquire) != 0;
}

std::size_t armed_count() {
  ensure_env_parsed();
  std::lock_guard<std::mutex> lock(g_mu);
  return g_faults.size();
}

void fire(const char* site, std::uint64_t detail) {
  ensure_env_parsed();
  if (g_armed_count.load(std::memory_order_acquire) == 0) return;
  Kind kind;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    const Fault* hit = nullptr;
    for (const auto& f : g_faults) {
      if (f.site == site && (f.match_all || f.match == detail)) {
        hit = &f;
        break;
      }
    }
    if (hit == nullptr) return;
    kind = hit->kind;
  }
  switch (kind) {
    case Kind::kCrash: do_crash();
    case Kind::kHang: do_hang();
    case Kind::kOom: do_oom();
  }
}

}  // namespace rader::faultpoint
