// extradeep: the one command-line driver of the Extra-Deep toolchain.
//
//   extradeep <subcommand> [options]
//
// Each subcommand is a run_* function (driver.hpp); this file holds the
// dispatch table, the usage text and the exit-code rule every subcommand
// shares: 2 on a usage error, 1 on a runtime failure or gate violation,
// 0 otherwise (including -h/--help).

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "driver/driver.hpp"

using namespace extradeep;

namespace {

struct Command {
    const char* name;
    int (*run)(cli::Args);
    const char* usage;  ///< the synopsis after "extradeep "
};

constexpr Command kCommands[] = {
    {"fit", driver::run_fit,
     "fit --out FILE [--name NAME] [--ranks 2,4,6,8,10] [--reps N]\n"
     "    [--threads N] [--trace SPEC] [spec options]"},
    {"serve", driver::run_serve,
     "serve --models DIR [--port N] [--host H] [--threads N]\n"
     "    [--trace SPEC] [--fake-clock STEP_US]"},
    {"query", driver::run_query, "query --port N [--host H] REQUEST..."},
    {"ask", driver::run_ask,
     "ask --models DIR [--trace SPEC] [--fake-clock STEP_US] REQUEST..."},
    {"loadgen", driver::run_loadgen,
     "loadgen (--self | --models DIR | --port N) [--host H]\n"
     "    [--connections N] [--requests M] [--pipeline D]\n"
     "    [--mode closed|open|both] [--threads N] [--timeout MS]\n"
     "    [--out FILE] [--thresholds FILE] [REQUEST...]"},
    {"fleet", driver::run_fleet,
     "fleet --models DIR [--spool DIR] [--port N] [--host H] [--threads N]\n"
     "    [--fit-threads N] [--min-runs N] [--quiescence-ms N] [--window N]\n"
     "    [--max-pending N] [--poll-ms N] [--max-line BYTES]\n"
     "    [--trace SPEC] [spec options]"},
    {"drive", driver::run_drive,
     "drive (--port N [--host H] | --spool DIR) --experiment NAME\n"
     "    [--ranks 2,4,6,8,10] [--pre N] [--post N]\n"
     "    [--drift none|hw:SEV[@R]|sw:SEV[@R]] [--probe X] [--tol F]\n"
     "    [--wait-ms N] [spec options]"},
    {"drift", driver::run_drift,
     "drift [--out FILE] [--thresholds FILE] [--verbose] [spec options]"},
    {"eval", driver::run_eval,
     "eval [--quick] [--case NAME]... [--noise S1,S2,...] [--seed N]\n"
     "    [--threads N] [--out FILE] [--thresholds FILE] [--keep-files]\n"
     "    [--list] [--trace SPEC] [--validate-json FILE] "
     "[--validate-edp FILE]"},
    {"plan", driver::run_plan,
     "plan [--quick] [--smoke] [--case NAME]... [--noise S1,S2,...]\n"
     "    [--seed N] [--threads N] [--budget N] [--max-pulls N]\n"
     "    [--target-rel-width W] [--out FILE] [--thresholds FILE]\n"
     "    [--list] [--trace SPEC]"},
    {"whatif", driver::run_whatif,
     "whatif [--quick] [--seed N] [--threads N] [--reps N]\n"
     "    [--out FILE] [--thresholds FILE]"},
    {"perf", driver::run_perf,
     "perf [--quick] [--corpus-mb N] [--threads N] [--out FILE]\n"
     "    [--thresholds FILE] [--keep-files]"},
};

constexpr char kFooter[] =
    "spec options: --dataset D --system DEEP|JURECA "
    "--strategy data|tensor|pipeline\n"
    "              --scaling weak|strong --batch B --mdegree M --seed N\n"
    "REQUEST verbs: predict speedup efficiency cost search whatif advise "
    "plan\n"
    "               list stats metrics ping reload shutdown\n"
    "               ingest fleet-stats (extradeep fleet only)\n"
    "exit status: 0 ok, 1 runtime failure or gate violation, 2 usage "
    "error\n";

/// `lead` + "extradeep " + the synopsis, continuation lines under the lead.
void print_synopsis(std::FILE* out, const char* lead, const char* usage) {
    const int indent = static_cast<int>(std::strlen(lead));
    std::fprintf(out, "%sextradeep ", lead);
    for (const char* c = usage; *c != '\0'; ++c) {
        std::fputc(*c, out);
        if (*c == '\n') {
            std::fprintf(out, "%*s", indent, "");
        }
    }
    std::fputc('\n', out);
}

void print_usage(std::FILE* out) {
    std::fprintf(out, "usage: extradeep <subcommand> [options]\n");
    for (const Command& c : kCommands) {
        print_synopsis(out, "  ", c.usage);
    }
    std::fputs(kFooter, out);
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        print_usage(stderr);
        return 2;
    }
    const std::string name = argv[1];
    if (name == "-h" || name == "--help") {
        print_usage(stdout);
        return 0;
    }
    const Command* command = nullptr;
    for (const Command& c : kCommands) {
        if (name == c.name) {
            command = &c;
        }
    }
    if (command == nullptr) {
        std::fprintf(stderr, "error: unknown subcommand '%s'\n", name.c_str());
        print_usage(stderr);
        return 2;
    }
    try {
        return command->run(cli::Args(argc, argv, 2));
    } catch (const driver::HelpRequested&) {
        print_synopsis(stdout, "usage: ", command->usage);
        std::fputs(kFooter, stdout);
        return 0;
    } catch (const driver::UsageError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        print_synopsis(stderr, "usage: ", command->usage);
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
