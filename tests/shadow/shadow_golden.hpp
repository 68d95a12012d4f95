// The golden batteries' corpus, normalizer and golden-file codec: the
// shadow battery's, shared by the SP-bags battery
// (tests/core/spbags_golden_test.cpp).
//
// The shadow battery (shadow_equivalence_test.cpp) holds the production
// shadow to frozen output: every seeded program below was swept once under
// the original paired-map shadow, and tests/shadow/golden/shadow_sweep.golden
// records, per seed, the spec accounting, the verdict and a digest of the
// merged RaceLog::to_json().  The programs are the ones byte-identity
// requires (tests/core/sweep_equivalence_test.cpp has the rules):
// global-pool addresses, annotate-only accesses, seed-pure control flow.
//
// Reports name raw addresses, which move with ASLR between processes, so
// the digest is taken over a normalized log in which every "addr" is an
// offset into g_pool.  The same normalizer produced the golden file.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/spec_family.hpp"
#include "spec/steal_spec.hpp"
#include "support/hash.hpp"

namespace rader::golden {

struct Rng {
  std::uint64_t state;
  std::uint64_t next() {  // splitmix64
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ull;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
};

// Named racing locations; programs only annotate, never store.
inline int g_pool[16];

inline void node(Rng& rng, reducer<monoid::op_add<long>>& sum, int depth) {
  const int actions = 2 + static_cast<int>(rng.next() % 3);
  for (int a = 0; a < actions; ++a) {
    const std::uint64_t roll = rng.next();
    const int slot = static_cast<int>((roll >> 8) % 16);
    switch (roll % 5) {
      case 0:
      case 1: {
        const bool deeper = depth < 3 && (roll & (1u << 20)) != 0;
        spawn([&rng, &sum, slot, deeper, depth] {
          shadow_write(&g_pool[slot], sizeof(int), SrcTag{"eq spawned write"});
          sum += 1;
          if (deeper) node(rng, sum, depth + 1);
        });
        break;
      }
      case 2:
        shadow_read(&g_pool[slot], sizeof(int), SrcTag{"eq continuation read"});
        break;
      case 3:
        shadow_write(&g_pool[slot], sizeof(int),
                     SrcTag{"eq continuation write"});
        break;
      case 4:
        sync();
        break;
    }
  }
  (void)sum.get_value(SrcTag{"eq tail read"});
  sync();
}

struct SeededProgram {
  std::uint64_t seed;

  void operator()() const {
    Rng rng{(seed + 1) * 0x9E3779B97F4A7C15ull};
    reducer<monoid::op_add<long>> sum(SrcTag{"eq sum"});
    const int slot = static_cast<int>(rng.next() % 16);
    spawn([&sum, slot] {
      shadow_write(&g_pool[slot], sizeof(int), SrcTag{"eq spawned write"});
      sum += 1;
    });
    shadow_read(&g_pool[slot], sizeof(int), SrcTag{"eq continuation read"});
    node(rng, sum, 0);
    sync();
  }
};

/// The Section-7 family for `program` (K and D probed from one no-steal
/// run, capped), plus the no-steal and steal-all endpoints.
inline std::vector<std::unique_ptr<spec::StealSpec>> family_for(
    const SeededProgram& program) {
  SerialEngine::Stats probe;
  {
    spec::NoSteal none;
    SerialEngine engine(nullptr, &none);
    engine.run([&] { program(); });
    probe = engine.stats();
  }
  const auto k = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(probe.max_sync_block, 6));
  const auto d = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(probe.max_spawn_depth, 10));
  auto family = spec::full_coverage_family(k, d);
  family.push_back(std::make_unique<spec::NoSteal>());
  family.push_back(std::make_unique<spec::StealAll>());
  return family;
}

/// `json` with every `"addr":<decimal>` rewritten as `"addr":"pool+<offset
/// from &g_pool[0]>"`, or `"addr":"foreign"` outside the pool.
inline std::string normalize_addresses(const std::string& json) {
  static constexpr char kKey[] = "\"addr\":";
  constexpr std::size_t kKeyLen = sizeof(kKey) - 1;
  const auto base = reinterpret_cast<std::uintptr_t>(&g_pool[0]);
  std::string out;
  out.reserve(json.size());
  std::size_t pos = 0;
  for (std::size_t at; (at = json.find(kKey, pos)) != std::string::npos;) {
    std::size_t end = at + kKeyLen;
    std::uintptr_t addr = 0;
    while (end < json.size() && json[end] >= '0' && json[end] <= '9') {
      addr = addr * 10 + static_cast<std::uintptr_t>(json[end++] - '0');
    }
    out.append(json, pos, at + kKeyLen - pos);
    if (addr >= base && addr - base < sizeof(g_pool)) {
      out += "\"pool+" + std::to_string(addr - base) + '"';
    } else {
      out += "\"foreign\"";
    }
    pos = end;
  }
  out.append(json, pos, std::string::npos);
  return out;
}

/// The digest recorded in the golden file: mix64 of the FNV-1a hash of
/// the normalized log.
inline std::uint64_t log_digest(const std::string& normalized_json) {
  return mix64(fnv1a(normalized_json));
}

/// One golden line: `<kind> <seed> <spec_runs> <specs_skipped> <any_race>
/// <digest>`, kind "sweep" (sweep_family at jobs=1) or "driver"
/// (Rader::check_exhaustive).
struct GoldenRow {
  std::string kind;
  std::uint64_t seed = 0;
  std::uint64_t spec_runs = 0;
  std::uint64_t specs_skipped = 0;
  bool any_race = false;
  std::uint64_t digest = 0;
};

inline std::string format_row(const GoldenRow& row) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s %" PRIu64 " %" PRIu64 " %" PRIu64 " %d %016" PRIx64,
                row.kind.c_str(), row.seed, row.spec_runs, row.specs_skipped,
                row.any_race ? 1 : 0, row.digest);
  return buf;
}

/// Parse one non-comment line; false on a malformed one.
inline bool parse_row(const std::string& line, GoldenRow* row) {
  char kind[16];
  int any = 0;
  if (std::sscanf(line.c_str(),
                  "%15s %" SCNu64 " %" SCNu64 " %" SCNu64 " %d %" SCNx64,
                  kind, &row->seed, &row->spec_runs, &row->specs_skipped,
                  &any, &row->digest) != 6) {
    return false;
  }
  row->kind = kind;
  row->any_race = any != 0;
  return true;
}

/// The rows of kind `kind` in the golden file at `path`, in file order;
/// an unreadable file or a malformed line fails the calling test.
inline std::vector<GoldenRow> read_rows(const char* path,
                                        const std::string& kind) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<GoldenRow> rows;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    GoldenRow row;
    EXPECT_TRUE(parse_row(line, &row)) << "malformed: " << line;
    if (row.kind == kind) rows.push_back(row);
  }
  return rows;
}

}  // namespace rader::golden
