// Runs every collective of the runtime (hcube::rt) once as real data
// movement and prints the measured wall clock next to the cycle
// simulator's makespan — the quickest way to see schedules as actual data
// movement rather than cycle counts.
//
//   rt_collectives [--dim 5] [--block 512] [--pps 2]
#include "common/cli.hpp"
#include "rt/communicator.hpp"
#include "trees/bst.hpp"
#include "trees/sbt.hpp"

#include <cstdio>

int main(int argc, char** argv) {
    using namespace hcube;

    const CliOptions options(argc, argv);
    const auto n = static_cast<hc::dim_t>(options.get_int("dim", 5));
    const auto pps = static_cast<sim::packet_t>(options.get_int("pps", 2));

    rt::Params params;
    params.block_elems =
        static_cast<std::size_t>(options.get_int("block", 512));
    rt::Communicator comm(n, params);

    std::printf("hcube::rt collectives on a %d-cube, %zu doubles per "
                "block\n\n",
                n, params.block_elems);
    std::printf("%-22s %8s %9s %12s %9s %6s\n", "collective", "cycles",
                "blocks", "copied B", "ms", "ok");

    const auto report = [](const char* name, const rt::Result& r) {
        std::printf("%-22s %8u %9llu %12llu %9.3f %6s\n", name, r.rt_cycles,
                    static_cast<unsigned long long>(r.blocks_delivered),
                    static_cast<unsigned long long>(r.bytes_copied),
                    r.seconds * 1e3,
                    r.verified && r.rt_cycles == r.sim_makespan ? "yes"
                                                                : "NO");
    };

    const auto sbt = trees::build_sbt(n, 0);
    const auto bst = trees::build_bst(n, 0);
    const auto total =
        static_cast<sim::packet_t>(n) * pps; // same bytes for both broadcasts

    report("broadcast sbt",
           comm.broadcast(sbt, routing::BroadcastDiscipline::port_oriented,
                          total));
    report("broadcast msbt", comm.broadcast_msbt(0, total));
    report("scatter sbt",
           comm.scatter(sbt, routing::ScatterPolicy::descending, pps));
    report("scatter bst",
           comm.scatter(bst, routing::ScatterPolicy::cyclic, pps));
    report("gather bst",
           comm.gather(bst, routing::ScatterPolicy::cyclic, pps));
    report("reduce sbt", comm.reduce(sbt, pps));
    report("allgather", comm.allgather());
    report("alltoall", comm.alltoall(1));

    std::printf("\nEvery block is checksum-verified on receipt; 'cycles' "
                "must equal the CycleExecutor makespan.\n");
    return 0;
}
