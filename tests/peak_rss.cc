/**
 * @file
 * Memory gate: runs one command and fails unless it exits 0 with a
 * peak resident set below a bound.
 *
 *     peak_rss MAX_MIB COMMAND [ARG...]
 *
 * The command runs as a forked child; its peak RSS is the ru_maxrss
 * that wait4() reports for that child alone, so the gate measures the
 * command and not this wrapper. Prints "exit N, peak RSS X MiB" and
 * exits 0 when the child exited 0 under MAX_MIB, 1 otherwise.
 */

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "usage: peak_rss MAX_MIB COMMAND [ARG...]\n");
        return 1;
    }
    char *end = nullptr;
    const double max_mib = std::strtod(argv[1], &end);
    if (end == argv[1] || *end != '\0' || !(max_mib > 0)) {
        std::fprintf(stderr, "peak_rss: bad MAX_MIB '%s'\n", argv[1]);
        return 1;
    }

    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("peak_rss: fork");
        return 1;
    }
    if (pid == 0) {
        execv(argv[2], argv + 2);
        std::perror("peak_rss: exec");
        _exit(127);
    }

    int status = 0;
    struct rusage usage = {};
    if (wait4(pid, &status, 0, &usage) != pid) {
        std::perror("peak_rss: wait4");
        return 1;
    }
    const double peak_mib = double(usage.ru_maxrss) / 1024; // KiB
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::printf("exit %d, peak RSS %.1f MiB (bound %.1f MiB)\n", code,
                peak_mib, max_mib);
    if (code != 0)
        return 1;
    if (peak_mib >= max_mib) {
        std::fprintf(stderr, "peak RSS %.1f MiB >= %.1f MiB\n", peak_mib,
                     max_mib);
        return 1;
    }
    return 0;
}
