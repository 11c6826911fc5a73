#include "service/client.hh"

#include <cerrno>
#include <cstring>

#include "common/logging.hh"
#include "harness/results_io.hh"

namespace carve {
namespace service {

std::optional<Client>
Client::connect(const std::string &socket_path)
{
    LineChannel chan = connectUnix(socket_path);
    if (!chan.valid()) {
        warn("carve-served client: cannot connect to '%s': %s",
             socket_path.c_str(), std::strerror(errno));
        return std::nullopt;
    }
    Client client(std::move(chan));
    json::Value ping{json::Members{}};
    ping.set("op", "ping");
    const json::Value pong = client.request(ping);
    if (!boolAt(pong, "ok")) {
        warn("carve-served client: '%s' did not answer ping",
             socket_path.c_str());
        return std::nullopt;
    }
    const std::string schema = stringAt(pong, "schema");
    if (schema != kProtocolSchema) {
        warn("carve-served client: '%s' speaks '%s', this client "
             "speaks '%s'",
             socket_path.c_str(), schema.c_str(), kProtocolSchema);
        return std::nullopt;
    }
    if (pong.at("threads").kind() == json::Value::Kind::Int) {
        client.server_threads_ =
            static_cast<unsigned>(pong.at("threads").asInt());
    }
    return client;
}

json::Value
Client::request(const json::Value &req, EventFn on_event)
{
    if (!chan_.writeLine(req.dump(0)))
        return json::Value();
    std::string line;
    while (chan_.readLine(line)) {
        json::Value v;
        try {
            ScopedErrorCapture capture;
            v = json::parse(line, "server response");
        } catch (const std::exception &e) {
            warn("carve-served client: bad response line: %s",
                 e.what());
            return json::Value();
        }
        if (v.has("event")) {
            if (on_event) {
                on_event(stringAt(v, "event"), stringAt(v, "id"),
                         stringAt(v, "state"));
            }
            continue;  // progress line; the response follows
        }
        return v;
    }
    return json::Value();  // connection lost
}

SubmitReply
Client::submit(const JobSpec &spec)
{
    SubmitReply out;
    if (spec.opts.trace.enabled) {
        out.error = "traced jobs cannot be served: the trace file "
                    "would be written on the daemon side";
        return out;
    }
    json::Value req{json::Members{}};
    req.set("op", "submit");
    req.set("job", jobSpecToJson(spec));
    const json::Value resp = request(req);

    if (resp.isNull()) {
        out.error = "connection lost";
        return out;
    }
    if (!boolAt(resp, "ok")) {
        out.error = stringAt(resp, "error", "server error");
        out.retriable = boolAt(resp, "retriable");
        return out;
    }
    out.ok = true;
    out.id = stringAt(resp, "id");
    out.state = stringAt(resp, "state");
    out.cached = boolAt(resp, "cached");
    return out;
}

ResultReply
Client::result(const std::string &id, EventFn on_event)
{
    json::Value req{json::Members{}};
    req.set("op", "result");
    req.set("id", id);
    req.set("wait", true);
    req.set("events", static_cast<bool>(on_event));
    json::Value resp = request(req, std::move(on_event));

    ResultReply out;
    if (resp.isNull()) {
        out.error = "connection lost";
        return out;
    }
    out.state = stringAt(resp, "state");
    if (!boolAt(resp, "ok")) {
        out.error = stringAt(resp, "error", "server error");
        return out;
    }
    if (!resp.has("run")) {
        out.error = "job not finished";
        return out;
    }
    out.ok = true;
    out.cached = boolAt(resp, "cached");
    out.wall_seconds = resp.at("wall_seconds").isNumber()
                           ? resp.at("wall_seconds").asDouble()
                           : 0.0;
    out.record_json = resp.at("run").dump(0);
    try {
        ScopedErrorCapture capture;
        out.run = harness::resultFromJson(std::move(resp).at("run"));
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = std::string("bad run record: ") + e.what();
    }
    return out;
}

bool
Client::cancel(const std::string &id)
{
    json::Value req{json::Members{}};
    req.set("op", "cancel");
    req.set("id", id);
    const json::Value resp = request(req);
    return boolAt(resp, "ok") && boolAt(resp, "cancelled");
}

json::Value
Client::stats()
{
    json::Value req{json::Members{}};
    req.set("op", "stats");
    return request(req);
}

std::string
Client::metrics()
{
    json::Value req{json::Members{}};
    req.set("op", "metrics");
    const json::Value resp = request(req);
    return boolAt(resp, "ok") ? stringAt(resp, "text") : std::string();
}

JobSpec
jobFromRunSpec(const harness::RunSpec &spec)
{
    return {presetName(spec.preset), spec.workload, spec.base, spec.opts,
            spec.host_stats};
}

} // namespace service
} // namespace carve
