/**
 * @file
 * serve_mixed: serve::Server on loopback at an ephemeral port, fed
 * open-loop at a fixed rate below saturation by one generator thread
 * with at most nproc connections in flight. Each request is timed
 * from when it was due, so a stall also charges the requests queued
 * behind it.
 *
 * Keys are drawn from the seed: nine in 32 are fresh keys, cache
 * misses that run small audited simulations (some of them sweeps
 * paired with a point request sharing one unit, so coalescing
 * happens); the rest repeat a warmed hot set and are served from the
 * result cache. The p50 reflects the hit path and the tail the miss
 * path. This is the only workload that runs HTTP, the protocol, the
 * cache, coalescing and admission.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <thread>

#include "exp/json_in.hh"
#include "exp/json_out.hh"
#include "exp/report.hh"
#include "serve/broker.hh"
#include "serve/coalesce.hh"
#include "serve/http.hh"
#include "serve/server.hh"

#include "harness.hh"

namespace rrperf {

namespace {

using namespace rr;

/** Offered load (requests per second), below saturation. */
constexpr double kRate = 800.0;

/** A 200 within this limit counts toward goodput. */
constexpr double kLimitMs = 50.0;

/**
 * Length of one round of the request stream (see window()): 544
 * requests, 17 cycles of plain and burst groups, whose 102 plain
 * misses put ten beyond the p90. Short, so that a run replays each
 * request many times.
 */
constexpr double kRoundSeconds = 0.68;

/**
 * Run length of the point that opens a burst. A short run length means
 * many faults, so the point runs long enough (about 1.4 ms) for the
 * sweep and the point behind it to be queued together, and coalesce,
 * by the time it ends.
 */
constexpr unsigned kBusyRunLength = 24;

/** Hot keys, warmed during set-up. */
constexpr std::size_t kHotKeys = 32;

/** Requests whose response bodies form the digest. */
constexpr std::size_t kDigestRequests = 128;

/** One generated request. */
struct Request
{
    std::string body;
    int hot = -1;         ///< hot-key index, or -1 for a fresh key
    std::size_t back = 0; ///< due this many periods early (bursts)
    bool burst = false;   ///< one of a burst's three fresh requests
};

/**
 * The seeded request stream. Request i is a pure function of the
 * seed and i, so the bodies — and the served responses — are the
 * same on every run with that seed.
 */
class Stream
{
  public:
    explicit Stream(uint64_t seed) : seed_(seed)
    {
        for (std::size_t k = 0; k < kHotKeys; ++k)
            hot_.push_back(body(seed * 131 + k, 1000.0 + k, 0.0, 128));
    }

    const std::string &hotBody(std::size_t k) const { return hot_[k]; }

    /**
     * Request @p i. Requests come in groups of eight, in cycles of
     * three plain groups and a burst group. A plain group holds two
     * fresh keys at seeded slots and six hot keys. A burst group opens
     * with three fresh requests due together: a point that keeps the
     * scheduler busy, then a two-point sweep and a point request
     * sharing one of its units, which therefore queue together and
     * coalesce; its other five slots are hot keys.
     *
     * The shares are fixed, not drawn, and so are the costs: each
     * cycle takes the next seven run lengths of one sequence, the same
     * for every seed (see runLength()), and the burst's opener always
     * kBusyRunLength. So the latency percentiles of the plain misses
     * fall inside one smooth distribution, whatever the seed, rather
     * than on the edge between two bands of equal-cost requests, where
     * a few requests more or less would move them.
     */
    Request
    at(std::size_t i) const
    {
        const std::size_t group = i / 8, slot = i % 8;
        InputRng rng(seed_ ^ (0x9e3779b97f4a7c15ull * (group + 1)));
        const uint64_t fields = rng.next();
        const double latency = 100000.0 + 4.0 * static_cast<double>(group);
        const std::size_t cycle = 7 * (group / 4), phase = group % 4;
        if (phase == 3) {
            if (slot == 0)
                return {body(fields + 1, latency, 0.0, kBusyRunLength), -1,
                        0, true};
            // The sweep and the point share a unit, so one run length.
            if (slot < 3)
                return {body(fields, latency + 1,
                             slot == 1 ? latency + 1.5 : 0.0,
                             runLength(cycle + 6)),
                        -1, slot, true};
        } else {
            const std::size_t a = rng.range(0, 7);
            std::size_t b = rng.range(0, 6);
            b += b >= a;
            if (slot == a || slot == b)
                return {body(fields + slot, latency + (slot == a ? 2 : 3),
                             0.0,
                             runLength(cycle + 2 * phase +
                                       (slot == std::min(a, b) ? 0 : 1))),
                        -1, 0};
        }
        InputRng pick(fields ^ (slot + 1));
        const std::size_t k = pick.range(0, kHotKeys - 1);
        return {hot_[k], static_cast<int>(k), 0};
    }

  private:
    /**
     * The run length of the @p n th distinct fresh unit, from 40 to 119
     * instructions along a golden-ratio sequence, which spreads them
     * evenly over any stretch of the stream. A miss costs about twice
     * as much at 40 as at 119.
     */
    static unsigned
    runLength(std::size_t n)
    {
        const double x = 0.6180339887498949 * static_cast<double>(n);
        return 40 + static_cast<unsigned>(80.0 * (x - std::floor(x)));
    }

    /**
     * A small cache-fault simulation request at @p latency and
     * @p run_length, with the architecture drawn from @p fields;
     * @p sweep_to > 0 makes it a two-point latency sweep.
     */
    static std::string
    body(uint64_t fields, double latency, double sweep_to,
         unsigned run_length)
    {
        InputRng rng(fields);
        const char *arch = rng.range(0, 1) == 0 ? "flexible" : "fixed";
        std::string spec = "{\"spec\": {\"family\": \"cache\", "
                           "\"runLength\": " +
                           std::to_string(run_length) + ", \"latency\": " +
                           exp::jsonNumber(latency) +
                           ", \"threads\": 8, \"seeds\": 1, \"archs\": [\"" +
                           arch + "\"]}";
        if (sweep_to > 0)
            spec += ", \"sweep\": {\"latencies\": [" +
                    exp::jsonNumber(latency) + ", " +
                    exp::jsonNumber(sweep_to) + "]}";
        return spec + "}";
    }

    uint64_t seed_;
    std::vector<std::string> hot_;
};

/** One request's outcome as the generator saw it. */
struct Outcome
{
    int status = 0;
    std::string body;
    uint64_t due = 0, start = 0, end = 0;
};

/** A minimal non-blocking HTTP/1.1 exchange (Connection: close). */
struct Exchange
{
    std::size_t index = 0;
    int fd = -1;
    std::string out;
    std::size_t sent = 0;
    std::string in;
};

bool
startExchange(Exchange &x, uint16_t port, const std::string &body)
{
    x.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (x.fd < 0)
        return false;
    const int one = 1;
    ::setsockopt(x.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc =
        ::connect(x.fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr);
    if (rc != 0 && errno != EINPROGRESS)
        return false;
    x.out = "POST /v1/simulate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
    return true;
}

/** Parse a complete response into @p o; false on malformed bytes. */
bool
parseResponse(const std::string &data, Outcome &o)
{
    const std::size_t header_end = data.find("\r\n\r\n");
    if (header_end == std::string::npos || data.compare(0, 9, "HTTP/1.1 ") != 0)
        return false;
    o.status = std::atoi(data.substr(9, 3).c_str());
    o.body = data.substr(header_end + 4);
    return true;
}

class ServeMixed : public Workload
{
  public:
    explicit ServeMixed(const Options &options)
        : stream_(options.seed)
    {
    }

    ~ServeMixed() override { stopServer(); }

    void
    setup() override
    {
        stopServer();
        serve::ServeOptions so;
        so.port = 0;
        so.jobs = 1;
        server_ = std::make_unique<serve::Server>(so);
        if (!server_->start())
            throw std::runtime_error(server_->error());
        thread_ = std::thread([this] { server_->run(); });
        port_ = server_->port();

        // Warm the hot set: each key once (a miss that fills the
        // cache), then once more (a hit that must repeat its bytes).
        served_ = false;
        hotBytes_.assign(kHotKeys, "");
        for (std::size_t k = 0; k < kHotKeys; ++k) {
            const serve::HttpResponse miss =
                serve::httpPost(port_, "/v1/simulate", stream_.hotBody(k));
            const serve::HttpResponse hit =
                serve::httpPost(port_, "/v1/simulate", stream_.hotBody(k));
            failures.check(miss.status == 200 && hit.status == 200 &&
                               miss.header("X-Cache") == "miss" &&
                               hit.header("X-Cache") == "hit" &&
                               hit.body == miss.body,
                           "serve_mixed warm-up of hot key " +
                               std::to_string(k) + " failed");
            hotBytes_[k] = miss.body;
        }
    }

    /**
     * The window replays the same request stream in rounds of about
     * kRoundSeconds, each against a freshly started and warmed server,
     * so that every request recurs under the same conditions.
     */
    Window
    window(double seconds, Spans &spans, Layers &layers) override
    {
        Window w;
        const std::size_t rounds = std::max<std::size_t>(
            1, static_cast<std::size_t>(seconds / kRoundSeconds + 0.5));
        std::vector<double> latency_ms, late_ms, best_ms;
        std::vector<Outcome> first_round;
        StatsSnapshot delta;
        double good = 0;
        for (std::size_t round = 0; round < rounds; ++round) {
            if (round > 0 || served_)
                setup();
            served_ = true;
            const StatsSnapshot before = stats();
            std::vector<Outcome> outs =
                generate(seconds / static_cast<double>(rounds), spans, w);
            delta += stats() - before;

            Digest digest;
            for (std::size_t i = 0; i < outs.size(); ++i) {
                const Outcome &o = outs[i];
                const Request r = stream_.at(i);
                const double ms = static_cast<double>(o.end - o.due) * 1e-6;
                latency_ms.push_back(ms);
                late_ms.push_back(static_cast<double>(o.start - o.due) * 1e-6);
                if (i < best_ms.size())
                    best_ms[i] = std::min(best_ms[i], ms);
                else
                    best_ms.push_back(ms);
                std::string why;
                if (o.status != 200)
                    why = "status " + std::to_string(o.status);
                else if (r.hot >= 0 && o.body != hotBytes_[r.hot])
                    why = "hot-key response differs from the miss that "
                          "filled the cache";
                else if (r.hot < 0)
                    why = validateDocument(o.body);
                failures.check(why.empty(), "serve_mixed request " +
                                                std::to_string(i) + ": " +
                                                why);
                if (why.empty() && ms <= kLimitMs)
                    ++good;
                if (i < kDigestRequests)
                    digest.add(o.body);
            }
            if (windowDigest == 0)
                windowDigest = digest.value();
            else
                failures.check(digest.value() == windowDigest,
                               "serve_mixed round digest differs from the "
                               "first round");
            if (round == 0)
                first_round = std::move(outs);
        }
        // Other load on a shared host only ever adds latency, so each
        // request is charged its fastest round. The end-to-end
        // percentiles are those of the miss path, where the serve
        // layers do their work; a hit's ~0.1 ms is mostly the host's
        // network stack and wake-ups, which moved its p50 by 2.5x
        // between otherwise identical sets of runs. They leave out the
        // bursts on purpose: the latency of their queued requests is
        // mostly that wait, and on a shared 4-vCPU KVM guest the
        // opener's long simulation moved with the host by up to 75%
        // between runs where the plain misses moved by 30%.
        w.units = latency_ms.size();
        w.throughput = good / w.seconds;
        std::vector<double> miss_ms;
        for (std::size_t i = 0; i < best_ms.size(); ++i)
            if (const Request r = stream_.at(i); r.hot < 0 && !r.burst)
                miss_ms.push_back(best_ms[i]);
        w.p50Ms = percentile(miss_ms, 50);
        w.p90Ms = percentile(miss_ms, 90);
        w.named["goodput_rps"] = w.throughput;
        w.named["req_p50_ms"] = percentile(latency_ms, 50);
        w.named["req_p99_ms"] = percentile(latency_ms, 99);
        layers["bench.gen_late_p99_ms"] = percentile(late_ms, 99);

        if (!spans.enabled()) {
            const double lookups = delta.hits + delta.misses;
            layers["serve.cache_hit_ratio"] =
                lookups == 0 ? 0.0 : delta.hits / lookups;
            layers["serve.coalesce_ratio"] =
                delta.unitsTotal == 0
                    ? 0.0
                    : 1.0 - delta.unitsUnique / delta.unitsTotal;
            layers["serve.rejected"] = delta.rejected;
            return w;
        }
        replay(first_round, spans, layers);
        return w;
    }

    uint64_t
    passDigest(uint64_t seed) override
    {
        const Stream stream(seed);
        serve::Broker broker(256, 1);
        Digest d;
        for (std::size_t i = 0; i < kDigestRequests; ++i)
            d.add(broker.serveBody(stream.at(i).body).body);
        return d.value();
    }

  private:
    struct StatsSnapshot
    {
        double hits = 0, misses = 0, rejected = 0, unitsTotal = 0,
               unitsUnique = 0;

        StatsSnapshot
        operator-(const StatsSnapshot &o) const
        {
            return {hits - o.hits, misses - o.misses, rejected - o.rejected,
                    unitsTotal - o.unitsTotal, unitsUnique - o.unitsUnique};
        }

        StatsSnapshot &
        operator+=(const StatsSnapshot &o)
        {
            hits += o.hits;
            misses += o.misses;
            rejected += o.rejected;
            unitsTotal += o.unitsTotal;
            unitsUnique += o.unitsUnique;
            return *this;
        }
    };

    StatsSnapshot
    stats()
    {
        StatsSnapshot s;
        const serve::HttpResponse r = serve::httpGet(port_, "/v1/stats");
        const auto doc = exp::parseJson(r.body);
        failures.check(r.status == 200 && doc.has_value(),
                       "serve_mixed /v1/stats failed");
        if (!doc)
            return s;
        const auto field = [&](const char *obj, const char *name) {
            const exp::JsonValue *o = doc->find(obj);
            return o == nullptr ? 0.0 : o->numberOr(name, 0.0);
        };
        s.hits = field("cache", "hits");
        s.misses = field("cache", "misses");
        s.rejected = field("admission", "rejected");
        s.unitsTotal = field("broker", "unitsTotal");
        s.unitsUnique = field("broker", "unitsUnique");
        return s;
    }

    /** A served result must be a valid rr.bench.v1 document. */
    static std::string
    validateDocument(const std::string &body)
    {
        const auto doc = exp::parseJson(body);
        if (!doc)
            return "response is not JSON";
        const auto issues = exp::validateReportJson(*doc);
        return issues.empty() ? "" : "invalid result: " + issues.front();
    }

    /**
     * The open loop: request i is due at start + i / kRate. At most
     * nproc exchanges are in flight; a due request that finds them
     * all busy waits, and its latency still counts from its due time.
     */
    std::vector<Outcome>
    generate(double seconds, Spans &spans, Window &w)
    {
        const std::size_t max_inflight = std::max(
            1u, std::thread::hardware_concurrency());
        const uint64_t start = nowNs();
        const uint64_t deadline =
            start + static_cast<uint64_t>(seconds * 1e9);
        const double period_ns = 1e9 / kRate;
        std::vector<Outcome> outs;
        std::deque<Exchange> inflight;
        std::size_t issued = 0;

        const auto due_of = [&](std::size_t k) {
            const std::size_t back = stream_.at(k).back;
            return start + static_cast<uint64_t>(
                               static_cast<double>(k < back ? 0 : k - back) *
                               period_ns);
        };
        // Keep issuing until the digest requests are complete, even
        // past the deadline.
        const auto more = [&]() {
            return due_of(issued) < deadline ||
                   issued < kDigestRequests;
        };
        const auto finish = [&](Exchange &x, bool ok) {
            Outcome &o = outs[x.index];
            o.end = nowNs();
            if (!ok || !parseResponse(x.in, o))
                o.status = 0;
            ::close(x.fd);
            x.fd = -1;
            if (spans.enabled()) {
                const int32_t req = spans.add("serve.request", o.due, o.end,
                                              -1, x.index);
                spans.add("http.exchange", o.start, o.end, req,
                          x.index);
            }
        };

        while (more() || !inflight.empty()) {
            const uint64_t now = nowNs();
            while (more() && due_of(issued) <= now &&
                   inflight.size() < max_inflight) {
                Outcome o;
                o.due = due_of(issued);
                o.start = nowNs();
                outs.push_back(o);
                Exchange x;
                x.index = issued;
                ++issued;
                if (!startExchange(x, port_,
                                   stream_.at(x.index).body)) {
                    finish(x, false);
                    continue;
                }
                inflight.push_back(std::move(x));
            }

            std::vector<pollfd> fds;
            for (const Exchange &x : inflight)
                fds.push_back({x.fd,
                               static_cast<short>(
                                   x.sent < x.out.size() ? POLLOUT : POLLIN),
                               0});
            // Busy-poll: sleeping here would add the host's wake-up
            // latency, which varies from run to run, to every request.
            ::poll(fds.data(), fds.size(), 0);

            for (std::size_t f = 0; f < fds.size(); ++f) {
                Exchange &x = inflight[f];
                if (fds[f].revents == 0)
                    continue;
                if (x.sent < x.out.size()) {
                    const ssize_t n = ::send(x.fd, x.out.data() + x.sent,
                                             x.out.size() - x.sent,
                                             MSG_NOSIGNAL);
                    if (n > 0)
                        x.sent += static_cast<std::size_t>(n);
                    else if (n < 0 && errno != EAGAIN && errno != EINPROGRESS)
                        finish(x, false);
                    continue;
                }
                char buffer[8192];
                const ssize_t n = ::recv(x.fd, buffer, sizeof buffer, 0);
                if (n > 0)
                    x.in.append(buffer, static_cast<std::size_t>(n));
                else if (n == 0)
                    finish(x, true);
                else if (errno != EAGAIN)
                    finish(x, false);
            }
            inflight.erase(std::remove_if(inflight.begin(), inflight.end(),
                                          [](const Exchange &x) {
                                              return x.fd < 0;
                                          }),
                           inflight.end());
        }
        w.seconds += static_cast<double>(nowNs() - start) * 1e-9;
        return outs;
    }

    /**
     * Traced run: replay the first round's requests in process through the
     * serve layer's public functions, timing each stage, and compare
     * every in-process body with the one served over HTTP.
     */
    void
    replay(const std::vector<Outcome> &outs, Spans &spans, Layers &layers)
    {
        serve::Broker broker(256, 1);
        std::vector<double> hit_ns, miss_ns, http_ns;
        for (std::size_t j = 0; j < outs.size(); ++j) {
            const std::string body = stream_.at(j).body;
            serve::ServeRequest request;
            {
                Scoped s(spans, "serve.parse", j);
                request = serve::parseRequest(body);
            }
            {
                Scoped s(spans, "serve.key", j);
                const std::string key = serve::canonicalKey(request);
                const auto units = serve::expandUnits(request);
                failures.check(!key.empty() && !units.empty(),
                               "serve_mixed replay: empty key or units");
            }
            const uint64_t b0 = nowNs();
            std::vector<serve::ServeResult> results;
            {
                Scoped s(spans, "serve.batch", j);
                results = broker.serveBatch({request});
            }
            const double batch = static_cast<double>(nowNs() - b0);
            (results.front().cacheHit ? hit_ns : miss_ns).push_back(batch);
            http_ns.push_back(
                static_cast<double>(outs[j].end - outs[j].start) - batch);
            failures.check(results.front().body == outs[j].body,
                           "serve_mixed request " + std::to_string(j) +
                               ": HTTP body differs from the in-process "
                               "broker's");
            if (results.front().cacheHit)
                continue;

            // The miss path, stage by stage.
            serve::BatchPlan plan;
            {
                Scoped s(spans, "serve.plan", j);
                plan = serve::planBatch({request});
            }
            std::vector<serve::UnitResult> unit_results;
            for (const serve::SimUnit &unit : plan.unique) {
                Scoped s(spans, "serve.unit", j);
                unit_results.push_back(serve::runAuditedUnit(unit));
            }
            std::string doc;
            {
                Scoped s(spans, "serve.result_doc", j);
                doc = serve::resultDocument(
                    request, serve::gatherResults(plan, 0, unit_results));
            }
            failures.check(doc == results.front().body,
                           "serve_mixed staged miss path differs from "
                           "Broker::serveBatch");
        }
        const auto mean = [](const std::vector<double> &v) {
            double sum = 0;
            for (const double x : v)
                sum += x;
            return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
        };
        const auto totals = spans.totals();
        layers["serve.parse_ns"] = meanSpanNs(totals, "serve.parse");
        layers["serve.key_ns"] = meanSpanNs(totals, "serve.key");
        layers["serve.plan_ns"] = meanSpanNs(totals, "serve.plan");
        layers["serve.unit_ns"] = meanSpanNs(totals, "serve.unit");
        layers["serve.result_doc_ns"] = meanSpanNs(totals, "serve.result_doc");
        layers["serve.batch_hit_ns"] = mean(hit_ns);
        layers["serve.batch_miss_ns"] = mean(miss_ns);
        layers["serve.http_ns"] = median(http_ns);
    }

    void
    stopServer()
    {
        if (server_ == nullptr)
            return;
        server_->stop();
        // Wake the acceptor from its poll, so that it sees the stop now
        // rather than at its next 100 ms timeout.
        serve::httpGet(port_, "/healthz");
        thread_.join();
        server_.reset();
    }

    Stream stream_;
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
    uint16_t port_ = 0;
    std::vector<std::string> hotBytes_;
    bool served_ = false; ///< the server has run a round since set-up
};

} // namespace

std::unique_ptr<Workload>
makeServeMixed(const Options &options)
{
    return std::make_unique<ServeMixed>(options);
}

} // namespace rrperf
