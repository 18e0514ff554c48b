/**
 * @file
 * Table 2 — benchmark statistics: #PCs, #addresses (unique lines) and
 * #pages per workload, plus the paper's published values for
 * comparison of shape (absolute counts scale with the trace budget).
 * Workloads the paper did not run (the transformer traces) print n/a
 * in the paper columns.
 */
#include <array>
#include <iostream>
#include <map>

#include "common.hpp"

int
main(int argc, char **argv)
{
    using namespace voyager;
    bench::BenchContext ctx(argc, argv, "table2");
    ctx.print_banner(std::cout, "Benchmark statistics (paper Table 2)");

    // Paper-reported values (PCs, addresses, pages).
    const std::map<std::string, std::array<const char *, 3>> paper = {
        {"astar", {"192", "0.15M", "29.9K"}},
        {"bfs", {"828", "0.16M", "4.1K"}},
        {"cc", {"529", "0.26M", "4.3K"}},
        {"mcf", {"169", "4.58M", "91.1K"}},
        {"omnetpp", {"1101", "0.48M", "36.3K"}},
        {"pr", {"650", "0.27M", "4.2K"}},
        {"soplex", {"2129", "0.36M", "12.3K"}},
        {"sphinx", {"1519", "0.13M", "4.3K"}},
        {"xalancbmk", {"2071", "0.34M", "25.3K"}},
        {"search", {"6729", "0.91M", "22.4K"}},
        {"ads", {"21159", "1.4M", "28.7K"}},
    };

    const std::array<const char *, 3> not_in_paper = {"n/a", "n/a", "n/a"};

    Table t({"benchmark", "#PCs", "#addresses", "#pages", "accesses",
             "paper #PCs", "paper #addr", "paper #pages"});
    for (const auto &name :
         ctx.benchmarks(trace::gen::all_benchmarks())) {
        const auto s = ctx.get_trace(name).stats();
        const auto it = paper.find(name);
        const auto &p = it == paper.end() ? not_in_paper : it->second;
        t.add_row({name, strfmt("%llu", (unsigned long long)s.unique_pcs),
                   strfmt("%llu", (unsigned long long)s.unique_lines),
                   strfmt("%llu", (unsigned long long)s.unique_pages),
                   strfmt("%llu", (unsigned long long)s.accesses), p[0],
                   p[1], p[2]});
    }
    t.print(std::cout);
    std::cout << "\nNote: absolute counts scale with the trace budget; "
                 "the ordering (mcf largest footprint, ads most PCs) is "
                 "the reproduced property.\n";
    return ctx.exit_code();
}
