/**
 * @file
 * Shared main of every test binary.
 *
 * Death tests default to the "threadsafe" style: the child
 * re-executes the binary and runs only the dying test, instead of
 * forking this process. A forked child inherits the shared
 * util::ThreadPool without its worker threads, so the first
 * parallelFor in a death-test statement would wait forever for
 * workers that do not exist. --gtest_death_test_style still
 * overrides the default.
 */

#include <gtest/gtest.h>

int
main(int argc, char **argv)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
