// The suite's entry point: resolves the storage engine before any test
// runs, so a CONCEALER_STORAGE_ENGINE value other than memory or mmap fails
// the whole run (see test_engine.h).

#include <gtest/gtest.h>

#include "test_engine.h"

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  concealer::TestEngine();
  return RUN_ALL_TESTS();
}
