#ifndef CONCEALER_TESTS_TEST_ENGINE_H_
#define CONCEALER_TESTS_TEST_ENGINE_H_

#include <memory>

#include "common/slice.h"
#include "concealer/service_provider.h"
#include "concealer/types.h"
#include "storage/storage_engine.h"

namespace concealer {

/// The storage engine the suite runs on, named by CONCEALER_STORAGE_ENGINE:
/// "memory" (or unset) or "mmap". CI runs the whole suite once per engine.
/// Any other value aborts the run (test_main.cc checks it before any test
/// runs), so a misspelt engine never silently tests the default.
StorageOptions::Engine TestEngine();

/// A provider on TestEngine(): the in-memory heap, or the mmap engine over
/// an ephemeral temp directory. Aborts if the mmap engine cannot be
/// opened, so the mmap leg can never pass on the memory engine.
std::unique_ptr<ServiceProvider> MakeTestProvider(const ConcealerConfig& config,
                                                  Bytes sk);

}  // namespace concealer

#endif  // CONCEALER_TESTS_TEST_ENGINE_H_
