// Scratch directories for the tests that need a real storage directory:
// created under std::filesystem::temp_directory_path() (as the library's
// ephemeral segment directories are) and removed with std::filesystem.

#ifndef CONCEALER_TESTS_TEST_DIR_H_
#define CONCEALER_TESTS_TEST_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace concealer {

/// Creates a fresh, empty directory and returns its path.
inline std::string TempDir() {
  std::error_code ec;
  const std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
  EXPECT_FALSE(ec) << "no temp directory: " << ec.message();
  std::string dir = (tmp / "concealer-test-XXXXXX").string();
  EXPECT_NE(::mkdtemp(dir.data()), nullptr) << dir;
  return dir;
}

/// Removes `dir` and everything under it.
inline void RemoveDirRecursive(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  EXPECT_FALSE(ec) << "cannot remove " << dir << ": " << ec.message();
}

}  // namespace concealer

#endif  // CONCEALER_TESTS_TEST_DIR_H_
