#include "test_engine.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace concealer {

StorageOptions::Engine TestEngine() {
  const char* env = std::getenv("CONCEALER_STORAGE_ENGINE");
  if (env == nullptr || std::strcmp(env, "memory") == 0) {
    return StorageOptions::Engine::kMemory;
  }
  if (std::strcmp(env, "mmap") == 0) return StorageOptions::Engine::kMmap;
  std::fprintf(stderr,
               "CONCEALER_STORAGE_ENGINE='%s': expected 'memory' or 'mmap'\n",
               env);
  std::abort();
}

std::unique_ptr<ServiceProvider> MakeTestProvider(const ConcealerConfig& config,
                                                  Bytes sk) {
  if (TestEngine() == StorageOptions::Engine::kMemory) {
    return std::make_unique<ServiceProvider>(config, std::move(sk));
  }
  StorageOptions storage;
  storage.engine = StorageOptions::Engine::kMmap;
  StatusOr<std::unique_ptr<ServiceProvider>> sp =
      ServiceProvider::Open(config, std::move(sk), storage);
  if (!sp.ok()) {
    std::fprintf(stderr, "cannot open the mmap test engine: %s\n",
                 sp.status().ToString().c_str());
    std::abort();
  }
  return std::move(*sp);
}

}  // namespace concealer
