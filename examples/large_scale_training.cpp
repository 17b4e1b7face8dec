/**
 * @file
 * Large-scale training walkthrough: train a real GraphSAGE model on a
 * Kronecker-expanded dataset through the SmartSAGE(HW/SW) producer,
 * tracking both learning progress (loss/accuracy) and the simulated
 * wall time the in-storage pipeline would take — the "train beyond
 * DRAM without giving up throughput" story of the paper.
 *
 * Run: ./large_scale_training [dataset] [epoch_batches]
 */

#include <iostream>
#include <string>

#include "core/report.hh"
#include "core/system.hh"
#include "gnn/model.hh"
#include "gnn/sampler.hh"
#include "sim/logging.hh"

using namespace smartsage;

int
main(int argc, char **argv)
{
    graph::DatasetId id = graph::DatasetId::ProteinPI;
    if (argc >= 2) {
        bool found = false;
        for (auto d : graph::allDatasets()) {
            if (graph::datasetName(d) == argv[1]) {
                id = d;
                found = true;
            }
        }
        if (!found)
            SS_FATAL("unknown dataset '", argv[1], "'");
    }
    std::size_t epoch_batches = argc >= 3 ? std::stoul(argv[2]) : 12;

    core::Workload wl = core::Workload::make(id);
    graph::EdgeLayout layout;
    SS_INFORM("dataset ", graph::datasetName(id), ": ",
              wl.graph.numNodes(), " nodes / ", wl.graph.numEdges(),
              " edges (", core::fmt(wl.edgeListBytes(layout) / 1e6, 1),
              " MB edge file on the simulated SSD)");

    // The system under test: full SmartSAGE HW/SW stack.
    core::SystemConfig sc;
    sc.backend = "isp-hwsw";
    sc.fanouts = {15, 10};
    core::GnnSystem system(sc, wl);

    // A real model trained on the subgraphs the ISP engine generates.
    gnn::ModelConfig mc;
    mc.in_dim = 32;
    mc.hidden_dim = 48;
    mc.num_classes = 16;
    mc.depth = 2;
    mc.learning_rate = 0.08f;
    gnn::SageModel model(mc);
    gnn::FeatureTable train_features(wl.graph.numNodes(), mc.in_dim,
                                     mc.num_classes);

    core::TableReporter table(
        "SmartSAGE(HW/SW) training, " + graph::datasetName(id),
        {"epoch", "mean loss", "eval accuracy", "sim time (s)",
         "SSD->host MB"});

    sim::Rng rng(2022);
    sim::Tick clock = 0;
    for (int epoch = 0; epoch < 3; ++epoch) {
        double loss_sum = 0;
        for (std::size_t b = 0; b < epoch_batches; ++b) {
            auto targets = gnn::selectTargets(wl.graph, 512, rng);
            auto job = system.producer().startBatch(targets, rng);
            while (!job->done())
                clock = job->step(clock);
            loss_sum += model.trainStep(job->takeSubgraph(),
                                        train_features);
        }
        auto eval_targets = gnn::selectTargets(wl.graph, 1024, rng);
        auto eval_job = system.producer().startBatch(eval_targets, rng);
        while (!eval_job->done())
            clock = eval_job->step(clock);
        double acc =
            model.evaluate(eval_job->takeSubgraph(), train_features);

        auto *isp = dynamic_cast<pipeline::IspProducer *>(
            &system.producer());
        table.addRow(
            {std::to_string(epoch),
             core::fmt(loss_sum / double(epoch_batches), 4),
             core::fmtPct(acc), core::fmt(sim::toSeconds(clock), 3),
             core::fmt(isp->accumulated().bytes_to_host / 1e6, 2)});
    }
    table.print(std::cout);
    SS_INFORM("every sampled byte crossed PCIe as a dense subgraph — "
              "the edge list itself never left the SSD");
    return 0;
}
