#include "serving.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "host/feature_cache.hh"
#include "host/io_path.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace smartsage::core
{

namespace
{

/** One pre-generated request: arrival tick plus gather addresses. */
struct ServingRequest
{
    sim::Tick arrival = 0;
    std::vector<std::uint64_t> addrs;
};

/**
 * Deterministically pick a node with at least one neighbor: bounded
 * rejection, then a forward scan so pathological graphs still
 * terminate.
 */
graph::LocalNodeId
pickServedNode(const graph::CsrGraph &graph, sim::Rng &rng)
{
    std::uint64_t n = graph.numNodes();
    for (int attempt = 0; attempt < 64; ++attempt) {
        auto node =
            static_cast<graph::LocalNodeId>(rng.nextBounded(n));
        if (graph.degree(node) > 0)
            return node;
    }
    auto node = static_cast<graph::LocalNodeId>(rng.nextBounded(n));
    for (std::uint64_t step = 0; step < n; ++step) {
        auto candidate = static_cast<graph::LocalNodeId>(
            (node + step) % n);
        if (graph.degree(candidate) > 0)
            return candidate;
    }
    SS_FATAL("serving workload needs a graph with at least one edge");
}

/**
 * Pre-generate the whole request stream. Request i draws from fork(i)
 * of the seed and arrivals accumulate in order, so the stream is a
 * pure function of (config, workload) — independent of event
 * interleaving and of which runner thread executes the cell.
 */
std::vector<ServingRequest>
generateRequests(const GnnSystem &system, const ServingConfig &config)
{
    const graph::CsrGraph &graph = system.workload().graph;
    const graph::EdgeLayout &layout = system.config().layout;
    sim::Rng master(config.seed);
    sim::Rng arrivals = master.fork(0);

    const double gap_ns = 1e9 / config.arrival_qps;
    double clock_ns = 0;

    std::vector<ServingRequest> requests(config.num_requests);
    for (std::size_t i = 0; i < config.num_requests; ++i) {
        ServingRequest &req = requests[i];
        if (i > 0) {
            // Open loop: the next arrival does not wait for anything.
            double gap = gap_ns;
            if (config.poisson)
                gap = -std::log1p(-arrivals.nextDouble()) * gap_ns;
            clock_ns += gap;
        }
        req.arrival = static_cast<sim::Tick>(clock_ns);

        sim::Rng rng = master.fork(i + 1);
        graph::LocalNodeId node = pickServedNode(graph, rng);
        std::uint64_t degree = graph.degree(node);
        sim::EdgeIndex row = graph.edgeOffset(node);
        req.addrs.reserve(config.fanout);
        for (unsigned k = 0; k < config.fanout; ++k)
            req.addrs.push_back(
                layout.addrOf(row + rng.nextBounded(degree)));
    }
    return requests;
}

/** Exponential draw with unit mean (inverse-CDF of the next double). */
double
expDraw(sim::Rng &rng)
{
    return -std::log1p(-rng.nextDouble());
}

/**
 * Pre-generate one open-loop tenant's arrival ticks. The shaped
 * streams modulate the instantaneous rate deterministically: the gap
 * after an arrival at simulated time `clock` is divided by the shape's
 * rate factor at that time, so bursts compress gaps and troughs
 * stretch them. All draws come from @p rng (the tenant's private
 * arrival fork), never from shared state.
 */
std::vector<sim::Tick>
generateShapedArrivals(const TenantClass &tenant, std::size_t count,
                       sim::Rng &rng)
{
    const double base_gap = 1e9 / tenant.arrival_qps;
    const double period = static_cast<double>(tenant.shape_period);
    double clock_ns = 0;

    // Bursty (MMPP) state: exponential dwell times with mean `period`,
    // toggling between the baseline and the burst rate.
    bool burst = false;
    double state_end = expDraw(rng) * period;

    std::vector<sim::Tick> arrivals(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (i > 0) {
            double factor = 1.0;
            switch (tenant.shape) {
              case ArrivalShape::Fixed:
              case ArrivalShape::Poisson:
                break;
              case ArrivalShape::Diurnal:
                // Rate sweeps [qps/mag, qps*mag] once per period.
                factor = std::pow(tenant.shape_mag,
                                  std::sin(2.0 * M_PI * clock_ns /
                                           period));
                break;
              case ArrivalShape::Bursty:
                while (clock_ns >= state_end) {
                    burst = !burst;
                    state_end += expDraw(rng) * period;
                }
                factor = burst ? tenant.shape_mag : 1.0;
                break;
              case ArrivalShape::FlashCrowd:
                // Deterministic replay: a crowd arrives at `period`
                // and disperses half a period later.
                factor = (clock_ns >= period &&
                          clock_ns < period * 1.5)
                             ? tenant.shape_mag
                             : 1.0;
                break;
            }
            double gap = tenant.shape == ArrivalShape::Fixed
                             ? base_gap
                             : expDraw(rng) * base_gap;
            clock_ns += gap / factor;
        }
        arrivals[i] = static_cast<sim::Tick>(clock_ns);
    }
    return arrivals;
}

/** One pre-generated multi-tenant request. */
struct TenantRequest
{
    std::vector<std::uint64_t> addrs;
    sim::Tick think = 0; //!< closed loop: gap before this submission
};

/** Request budget of class @p t: its explicit count, or an even share
 *  of the run budget (at least one request). */
std::size_t
tenantBudget(const TenantClass &tenant, std::size_t num_requests,
             std::size_t num_tenants)
{
    if (tenant.requests > 0)
        return tenant.requests;
    return std::max<std::size_t>(1, num_requests / num_tenants);
}

/**
 * The multi-tenant front end. Open-loop classes replay pre-generated
 * shaped arrivals; closed-loop classes schedule request j + clients at
 * the completion of request j plus an exponential think time. Every
 * draw comes from forks keyed by (tenant, request), so the run is a
 * pure function of (config, workload).
 */
ServingResult
runTenantServingLoad(GnnSystem &system, const ServingConfig &config,
                     host::EdgeStore *store)
{
    const graph::CsrGraph &graph = system.workload().graph;
    const graph::EdgeLayout &layout = system.config().layout;
    const unsigned entry_bytes = layout.entry_bytes;
    const std::size_t num_tenants = config.tenants.size();
    sim::Rng master(config.seed);

    // ---- pre-generate every class's stream ----
    std::vector<std::vector<TenantRequest>> streams(num_tenants);
    std::vector<std::vector<sim::Tick>> open_arrivals(num_tenants);
    for (std::size_t t = 0; t < num_tenants; ++t) {
        const TenantClass &tenant = config.tenants[t];
        std::size_t budget =
            tenantBudget(tenant, config.num_requests, num_tenants);
        // Nested fork discipline: stream 0 of the tenant fork paces
        // arrivals, stream j + 1 is request j's private draws.
        sim::Rng tenant_master = master.fork(0x7e0000 + t);
        sim::Rng arrivals = tenant_master.fork(0);
        if (!tenant.closedLoop())
            open_arrivals[t] =
                generateShapedArrivals(tenant, budget, arrivals);

        streams[t].resize(budget);
        for (std::size_t j = 0; j < budget; ++j) {
            TenantRequest &req = streams[t][j];
            sim::Rng rng = tenant_master.fork(j + 1);
            // Draw order is fixed (think gap, then content) so the
            // stream is identical no matter when requests dispatch.
            if (tenant.closedLoop())
                req.think = static_cast<sim::Tick>(
                    expDraw(rng) * static_cast<double>(tenant.think));
            graph::LocalNodeId node = pickServedNode(graph, rng);
            std::uint64_t degree = graph.degree(node);
            sim::EdgeIndex row = graph.edgeOffset(node);
            req.addrs.reserve(tenant.fanout);
            for (unsigned k = 0; k < tenant.fanout; ++k)
                req.addrs.push_back(
                    layout.addrOf(row + rng.nextBounded(degree)));
        }
    }

    ServingResult result;
    result.tenants.resize(num_tenants);
    std::size_t total_requests = 0;
    for (std::size_t t = 0; t < num_tenants; ++t) {
        result.tenants[t].name = config.tenants[t].name;
        result.tenants[t].slo = config.tenants[t].slo;
        result.tenants[t].requests = streams[t].size();
        total_requests += streams[t].size();
    }
    result.requests = total_requests;
    result.offered_qps = config.arrival_qps;

    sim::EventQueue eq;
    sim::Tick first_submit = ~sim::Tick{0};
    sim::Tick last_completion = 0;
    std::uint64_t accounted = 0;

    // Submits request j of class t at eq.now(); the completion updates
    // the aggregate and per-class tallies, and for closed-loop classes
    // chains the client's next request.
    std::function<void(std::size_t, std::size_t)> submitRequest =
        [&](std::size_t t, std::size_t j) {
            const TenantClass &tenant = config.tenants[t];
            const TenantRequest &req = streams[t][j];
            sim::Tick arrival = eq.now();
            first_submit = std::min(first_submit, arrival);
            sim::DispatchTag tag{
                tenant.priority,
                tenant.slo ? arrival + tenant.slo : sim::Tick{0}};
            store->submitGather(
                eq, req.addrs, entry_bytes,
                [&, t, j, arrival](sim::Tick finish,
                                   sim::IoStatus status) {
                    const TenantClass &cls = config.tenants[t];
                    TenantServingResult &tr = result.tenants[t];
                    ++accounted;
                    if (status == sim::IoStatus::Ok) {
                        sim::Tick latency = finish - arrival;
                        ++result.completed_ok;
                        ++tr.completed_ok;
                        if (cls.slo == 0 || latency <= cls.slo)
                            ++tr.slo_met;
                        double us = sim::toMicros(latency);
                        result.latency_us.record(us);
                        tr.latency_us.record(us);
                    } else {
                        ++tr.shed;
                        if (status == sim::IoStatus::Timeout)
                            ++result.shed_timeout;
                        else if (status == sim::IoStatus::Shed)
                            ++result.shed_admission;
                        else
                            ++result.shed_error;
                    }
                    last_completion =
                        std::max(last_completion, finish);
                    // Closed loop: the same client asks again after
                    // thinking about the answer (answered or not).
                    if (cls.closedLoop() &&
                        j + cls.clients < streams[t].size()) {
                        std::size_t next = j + cls.clients;
                        eq.schedule(finish + streams[t][next].think,
                                    [&, t, next] {
                                        submitRequest(t, next);
                                    });
                    }
                },
                tag);
        };

    for (std::size_t t = 0; t < num_tenants; ++t) {
        const TenantClass &tenant = config.tenants[t];
        if (tenant.closedLoop()) {
            // First wave: one request per client, staggered by each
            // request's own think draw so clients do not arrive in
            // lockstep at tick zero.
            std::size_t wave =
                std::min<std::size_t>(tenant.clients, streams[t].size());
            for (std::size_t j = 0; j < wave; ++j)
                eq.schedule(streams[t][j].think,
                            [&, t, j] { submitRequest(t, j); });
        } else {
            for (std::size_t j = 0; j < streams[t].size(); ++j)
                eq.schedule(open_arrivals[t][j],
                            [&, t, j] { submitRequest(t, j); });
        }
    }
    eq.run();

    SS_ASSERT(accounted == total_requests,
              "multi-tenant serving run dropped requests (",
              accounted, " of ", total_requests, " accounted)");
    result.makespan = last_completion - first_submit;
    double seconds = sim::toSeconds(result.makespan);
    result.achieved_qps =
        seconds > 0 ? static_cast<double>(result.requests) / seconds
                    : 0.0;
    result.goodput_qps =
        seconds > 0 ? static_cast<double>(result.completed_ok) / seconds
                    : 0.0;
    for (TenantServingResult &tr : result.tenants)
        tr.goodput_qps =
            seconds > 0
                ? static_cast<double>(tr.completed_ok) / seconds
                : 0.0;

    const sim::StorageChannel &channel = store->ioChannel();
    result.peak_outstanding = channel.peakOutstanding();
    result.mean_queue_wait_us =
        channel.queuedCount()
            ? sim::toMicros(channel.totalQueueWait()) /
                  static_cast<double>(channel.queuedCount())
            : 0.0;
    result.io_retries = channel.retries();
    result.io_timeouts = channel.timeouts();
    result.io_abandoned = channel.abandoned();
    return result;
}

} // namespace

double
ServingResult::sloAttainment() const
{
    std::uint64_t offered = 0;
    std::uint64_t met = 0;
    for (const TenantServingResult &tr : tenants) {
        if (tr.slo == 0)
            continue;
        offered += tr.requests;
        met += tr.slo_met;
    }
    return offered ? static_cast<double>(met) /
                         static_cast<double>(offered)
                   : 1.0;
}

ServingResult
runServingLoad(GnnSystem &system, const ServingConfig &config)
{
    SS_ASSERT(config.arrival_qps > 0, "arrival rate must be positive");
    SS_ASSERT(config.num_requests > 0 && config.fanout > 0,
              "degenerate serving run");

    host::EdgeStore *store = system.edgeStore();
    if (!store)
        SS_FATAL("backend '", system.config().backend,
                 "' has no host-side edge store; the serving harness "
                 "evaluates the host request path (pick a backend "
                 "whose caps list an edge store)");
    store->reset();

    if (!config.tenants.empty())
        return runTenantServingLoad(system, config, store);

    std::vector<ServingRequest> requests =
        generateRequests(system, config);
    const unsigned entry_bytes = system.config().layout.entry_bytes;

    ServingResult result;
    result.offered_qps = config.arrival_qps;
    result.requests = requests.size();

    // Hoard lookahead: when the cache's prefetcher is on, the arrival
    // of request i announces request i + lookahead's gather list, so
    // its lines stream in as low-priority fills while earlier demand
    // is served. The first `lookahead` requests run cold. The
    // multi-tenant path stays demand-only: its per-tenant streams
    // interleave, so one stream's lookahead would mispredict the
    // device-level arrival order.
    host::FeatureCacheStore *cache = system.featureCache();
    const std::size_t lookahead =
        cache && cache->prefetchEnabled()
            ? cache->params().prefetch_lookahead
            : 0;

    sim::EventQueue eq;
    sim::Tick last_completion = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const ServingRequest &req = requests[i];
        eq.schedule(req.arrival, [&, &req = req, i] {
            if (lookahead && i + lookahead < requests.size())
                cache->announceGather(
                    eq, requests[i + lookahead].addrs, entry_bytes);
            store->submitGather(
                eq, req.addrs, entry_bytes,
                [&result, &last_completion,
                 arrival = req.arrival](sim::Tick finish,
                                        sim::IoStatus status) {
                    // Only answered requests enter the latency
                    // histogram — shed requests have no meaningful
                    // service latency, just a separate count.
                    if (status == sim::IoStatus::Ok) {
                        ++result.completed_ok;
                        result.latency_us.record(
                            sim::toMicros(finish - arrival));
                    } else if (status == sim::IoStatus::Timeout) {
                        ++result.shed_timeout;
                    } else {
                        ++result.shed_error;
                    }
                    last_completion =
                        std::max(last_completion, finish);
                });
        });
    }
    eq.run();

    SS_ASSERT(result.completed_ok + result.shed_timeout +
                      result.shed_error ==
                  requests.size(),
              "serving run dropped requests");
    result.makespan = last_completion - requests.front().arrival;
    result.achieved_qps =
        result.makespan
            ? static_cast<double>(result.requests) /
                  sim::toSeconds(result.makespan)
            : 0.0;
    result.goodput_qps =
        result.makespan
            ? static_cast<double>(result.completed_ok) /
                  sim::toSeconds(result.makespan)
            : 0.0;

    const sim::StorageChannel &channel = store->ioChannel();
    result.peak_outstanding = channel.peakOutstanding();
    // Mean over the requests that actually queued: averaging the zero
    // waits of straight-to-slot dispatches in would understate the
    // admission wait a queued request experiences.
    result.mean_queue_wait_us =
        channel.queuedCount()
            ? sim::toMicros(channel.totalQueueWait()) /
                  static_cast<double>(channel.queuedCount())
            : 0.0;
    result.io_retries = channel.retries();
    result.io_timeouts = channel.timeouts();
    result.io_abandoned = channel.abandoned();
    return result;
}

} // namespace smartsage::core
