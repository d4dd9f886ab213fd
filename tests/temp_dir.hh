/**
 * @file
 * A private scratch directory for tests and benches that write files.
 *
 * Fixed names under the system temp directory collide when the same
 * binary runs twice at once (ctest -j runs every test case in its own
 * process, and a test can race another case's file). ScopedTempDir
 * makes a fresh directory named by a caller tag, the process id and a
 * per-process counter, and removes it with everything in it when the
 * object goes out of scope.
 */

#ifndef SASOS_TESTS_TEMP_DIR_HH
#define SASOS_TESTS_TEMP_DIR_HH

#include <atomic>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <unistd.h>

namespace sasos
{

class ScopedTempDir
{
  public:
    explicit ScopedTempDir(std::string_view tag = "tmp")
    {
        static std::atomic<unsigned> counter{0};
        path_ = std::filesystem::temp_directory_path() /
                ("sasos-" + std::string(tag) + "-" +
                 std::to_string(::getpid()) + "-" +
                 std::to_string(counter++));
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScopedTempDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    ScopedTempDir(const ScopedTempDir &) = delete;
    ScopedTempDir &operator=(const ScopedTempDir &) = delete;

    /** Path of `name` inside the directory. */
    std::string
    file(std::string_view name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

} // namespace sasos

#endif // SASOS_TESTS_TEMP_DIR_HH
