#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace dp::test {

/// A directory of this test process alone under testing::TempDir(), made
/// on first use and removed, with everything in it, at exit. The path
/// ends in '/', so a test appends a file name to it; two test processes
/// that write the same names never meet.
inline const std::string& temp_dir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string name = ::testing::TempDir() + "dpplace_test_XXXXXX";
      if (mkdtemp(name.data()) == nullptr) {
        throw std::runtime_error("temp_dir: cannot make " + name);
      }
      path = name + "/";
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace dp::test
