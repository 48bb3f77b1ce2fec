// tests/temp_path.hpp — a scratch path under the temp dir that the test
// removes when it ends.
//
// The path is `$TMPDIR/<stem>-<pid>-<name>`: the pid keeps concurrent test
// processes apart, and every '/' in `name` becomes '-' so a parameterized
// test name ("Suite/Case/0") stays one path component.  The path starts
// absent; the destructor removes it and everything under it, whether the
// test passed or not.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

class TempPath {
 public:
  TempPath(std::string_view stem, std::string name) {
    std::replace(name.begin(), name.end(), '/', '-');
    path_ = std::filesystem::temp_directory_path() /
            (std::string(stem) + "-" + std::to_string(::getpid()) + "-" +
             name);
    std::filesystem::remove_all(path_);
  }
  ~TempPath() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  operator const std::filesystem::path&() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};
