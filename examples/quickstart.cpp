/**
 * @file
 * Quickstart: build one dataset, train a real GraphSAGE model on it
 * functionally, then compare the simulated end-to-end training
 * throughput of the paper's main design points.
 *
 * Run: ./quickstart [dataset]   (default: Reddit)
 */

#include <iostream>
#include <string>

#include "core/backend.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "gnn/model.hh"
#include "gnn/sampler.hh"
#include "graph/datasets.hh"
#include "sim/logging.hh"

using namespace smartsage;

namespace
{

graph::DatasetId
parseDataset(int argc, char **argv)
{
    if (argc < 2)
        return graph::DatasetId::Reddit;
    std::string want = argv[1];
    for (auto id : graph::allDatasets()) {
        if (graph::datasetName(id) == want)
            return id;
    }
    SS_FATAL("unknown dataset '", want,
             "' (try Reddit, Movielens, Amazon, OGBN-100M, Protein-PI)");
}

} // namespace

int
main(int argc, char **argv)
{
    auto id = parseDataset(argc, argv);
    SS_INFORM("building workload: ", graph::datasetName(id));
    core::Workload wl = core::Workload::make(id);
    SS_INFORM("graph: ", wl.graph.numNodes(), " nodes, ",
              wl.graph.numEdges(), " edges, avg degree ",
              core::fmt(wl.graph.avgDegree(), 1));

    // --- 1. Functional training: a real GraphSAGE model learns. ---
    gnn::ModelConfig mc;
    mc.in_dim = 32; // small feature width for the functional demo
    mc.hidden_dim = 32;
    mc.num_classes = 8;
    mc.depth = 2;
    gnn::FeatureTable demo_features(wl.graph.numNodes(), mc.in_dim,
                                    mc.num_classes);
    gnn::SageModel model(mc);
    gnn::SageSampler sampler({10, 5});
    sim::Rng rng(7);

    double first_loss = 0, last_loss = 0;
    for (int step = 0; step < 30; ++step) {
        auto targets = gnn::selectTargets(wl.graph, 256, rng);
        auto sg = sampler.sample(wl.graph, targets, rng);
        double loss = model.trainStep(sg, demo_features);
        if (step == 0)
            first_loss = loss;
        last_loss = loss;
        if (step % 10 == 0)
            SS_INFORM("step ", step, " loss ", core::fmt(loss, 4));
    }
    auto eval_targets = gnn::selectTargets(wl.graph, 512, rng);
    auto eval_sg = sampler.sample(wl.graph, eval_targets, rng);
    SS_INFORM("functional GraphSAGE: loss ", core::fmt(first_loss, 3),
              " -> ", core::fmt(last_loss, 3), ", accuracy ",
              core::fmtPct(model.evaluate(eval_sg, demo_features)));

    // --- 2. Simulated end-to-end training across design points. ---
    core::TableReporter table(
        "End-to-end training, " + graph::datasetName(id),
        {"design", "batches/s", "slowdown vs DRAM", "GPU idle",
         "sampling share"});

    double dram_tput = 0;
    for (std::string backend :
         {"dram", "ssd-mmap", "direct-io", "isp-hwsw"}) {
        core::SystemConfig sc;
        sc.backend = backend;
        core::GnnSystem system(sc, wl);
        auto result = system.runPipeline();
        double tput = result.throughput();
        if (backend == "dram")
            dram_tput = tput;
        auto norm = result.stages.normalized();
        table.addRow({core::backendDisplayName(backend),
                      core::fmt(tput, 2),
                      core::fmtX(dram_tput / tput),
                      core::fmtPct(result.gpu_idle_frac),
                      core::fmtPct(norm.sampling)});
    }
    table.print(std::cout);
    return 0;
}
