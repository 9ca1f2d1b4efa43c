// Checks the benchmark's correctness oracle on its own: an exact copy of
// a payload passes, a copy with one flipped byte (or a shifted window)
// fails, and listings must match as sets. Exits nonzero on any failure.
#include <cstdio>
#include <vector>

#include "oracle.h"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  const perfbench::PayloadPool pool(42, (1u << 20) + 4096);
  const auto want = pool.window(3, 17, 4096);

  std::vector<std::uint8_t> copy(want.begin(), want.end());
  expect(perfbench::same_bytes(copy, want), "identical buffer passes");

  for (const std::size_t at : {std::size_t{0}, std::size_t{2047},
                               std::size_t{4095}}) {
    std::vector<std::uint8_t> flipped = copy;
    flipped[at] ^= 0x01;
    expect(!perfbench::same_bytes(flipped, want),
           "buffer with one flipped byte fails");
  }
  expect(!perfbench::same_bytes(pool.window(3, 18, 4096), want),
         "neighbouring transfer's payload fails");
  expect(!perfbench::same_bytes(std::span(copy).first(4095), want),
         "short read fails");

  const perfbench::PayloadPool same_seed(42, (1u << 20) + 4096);
  expect(perfbench::same_bytes(same_seed.window(3, 17, 4096), want),
         "same seed regenerates the same payload");

  expect(perfbench::same_names({"b", "a"}, {"a", "b"}),
         "listing in another order passes");
  expect(!perfbench::same_names({"a"}, {"a", "b"}),
         "listing missing a name fails");
  expect(!perfbench::same_names({"a", "b", "c"}, {"a", "b"}),
         "listing with an extra name fails");

  if (failures == 0) std::printf("oracle_test: ok\n");
  return failures == 0 ? 0 : 1;
}
