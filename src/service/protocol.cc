#include "service/protocol.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"

namespace carve {
namespace service {

namespace {

/** parseRegionKind: inverse of regionKindName(). */
RegionKind
parseRegionKind(const std::string &s)
{
    static constexpr RegionKind kinds[] = {
        RegionKind::PrivateStream,    RegionKind::InterleavedStream,
        RegionKind::SharedStream,     RegionKind::Lookup,
        RegionKind::Halo,             RegionKind::Atomic,
        RegionKind::RandomGlobal,
    };
    for (const RegionKind k : kinds) {
        if (s == regionKindName(k))
            return k;
    }
    fatal("job: unknown region kind '%s'", s.c_str());
}

json::Value
regionToJson(const RegionSpec &r)
{
    json::Value o{json::Members{}};
    o.set("kind", regionKindName(r.kind));
    o.set("bytes", r.bytes);
    o.set("access_frac", r.access_frac);
    o.set("write_frac", r.write_frac);
    o.set("zipf", r.zipf);
    o.set("lanes", static_cast<unsigned>(r.lanes));
    o.set("neighbor_frac", r.neighbor_frac);
    return o;
}

RegionSpec
regionFromJson(const json::Value &v)
{
    constexpr const char *what = "job: region";
    RegionSpec r;
    r.kind = parseRegionKind(json::requireString(v, "kind", what));
    r.bytes = json::requireU64(v, "bytes", what);
    r.access_frac = json::requireNumber(v, "access_frac", what);
    r.write_frac = json::requireNumber(v, "write_frac", what);
    r.zipf = json::requireNumber(v, "zipf", what);
    r.lanes = static_cast<std::uint8_t>(json::requireU64(v, "lanes", what));
    r.neighbor_frac = json::requireNumber(v, "neighbor_frac", what);
    return r;
}

json::Value
workloadToJson(const WorkloadParams &w)
{
    json::Value o{json::Members{}};
    o.set("name", w.name);
    o.set("kernels", w.kernels);
    o.set("ctas", w.ctas);
    o.set("warps_per_cta", w.warps_per_cta);
    o.set("insts_per_warp", w.insts_per_warp);
    o.set("compute_min", static_cast<unsigned>(w.compute_min));
    o.set("compute_max", static_cast<unsigned>(w.compute_max));
    o.set("iterative", w.iterative);
    json::Value regions{json::Array{}};
    for (const RegionSpec &r : w.regions)
        regions.push(regionToJson(r));
    o.set("regions", std::move(regions));
    return o;
}

WorkloadParams
workloadFromJson(const json::Value &v)
{
    constexpr const char *what = "job: workload";
    WorkloadParams w;
    w.name = json::requireString(v, "name", what);
    w.kernels =
        static_cast<unsigned>(json::requireU64(v, "kernels", what));
    w.ctas = json::requireU64(v, "ctas", what);
    w.warps_per_cta =
        static_cast<unsigned>(json::requireU64(v, "warps_per_cta", what));
    w.insts_per_warp = json::requireU64(v, "insts_per_warp", what);
    w.compute_min = static_cast<std::uint16_t>(
        json::requireU64(v, "compute_min", what));
    w.compute_max = static_cast<std::uint16_t>(
        json::requireU64(v, "compute_max", what));
    w.iterative = json::requireBool(v, "iterative", what);
    for (const json::Value &r : json::requireArray(v, "regions", what))
        w.regions.push_back(regionFromJson(r));
    return w;
}

} // namespace

json::Value
jobSpecToJson(const JobSpec &spec)
{
    json::Value o{json::Members{}};
    o.set("schema", kJobSchema);
    o.set("preset", spec.preset);
    o.set("workload", workloadToJson(spec.workload));
    // Sorted override keys: the canonical configuration form, so the
    // dump is independent of how the config was assembled. The
    // engine overrides win over the config in run(), so they are
    // folded into it here.
    SystemConfig base = spec.base;
    if (spec.opts.engine)
        base.engine = *spec.opts.engine;
    if (spec.opts.sim_threads)
        base.sim_threads = *spec.opts.sim_threads;
    json::Value cfg{json::Members{}};
    for (const ConfigOverride &ov : base.canonicalOverrides())
        cfg.set(ov.key, ov.value);
    o.set("config", std::move(cfg));
    json::Value opts{json::Members{}};
    opts.set("seed", spec.opts.seed);
    opts.set("max_cycles", spec.opts.max_cycles);
    opts.set("max_wall_seconds", spec.opts.max_wall_seconds);
    opts.set("profile_lines", spec.opts.profile_lines);
    opts.set("audit", spec.opts.audit);
    json::Value tel{json::Members{}};
    tel.set("enabled", spec.opts.telemetry.enabled);
    tel.set("host_timing", spec.opts.telemetry.host_timing);
    opts.set("telemetry", std::move(tel));
    opts.set("host_stats", spec.host_stats);
    o.set("options", std::move(opts));
    return o;
}

JobSpec
jobSpecFromJson(const json::Value &v)
{
    const std::string &schema = json::requireString(v, "schema", "job");
    if (schema != kJobSchema) {
        fatal("job: schema mismatch: got '%s', this server speaks "
              "'%s'", schema.c_str(), kJobSchema);
    }
    JobSpec spec;
    spec.preset = json::requireString(v, "preset", "job");
    spec.workload =
        workloadFromJson(json::requireObject(v, "workload", "job"));
    const json::Value &cfg = json::requireObject(v, "config", "job");
    for (const auto &[key, value] : cfg.asObject()) {
        if (!value.isString())
            fatal("job: config value for '%s' must be a string",
                  key.c_str());
        spec.base.applyOverride(key, value.asString());
    }
    constexpr const char *what = "job: options";
    const json::Value &opts = json::requireObject(v, "options", "job");
    spec.opts.seed = json::requireU64(opts, "seed", what);
    spec.opts.max_cycles = json::requireU64(opts, "max_cycles", what);
    spec.opts.max_wall_seconds =
        json::requireNumber(opts, "max_wall_seconds", what);
    spec.opts.profile_lines = json::requireBool(opts, "profile_lines", what);
    spec.opts.audit = json::requireBool(opts, "audit", what);
    const json::Value &tel = json::requireObject(opts, "telemetry", what);
    spec.opts.telemetry.enabled =
        json::requireBool(tel, "enabled", "job: telemetry");
    spec.opts.telemetry.host_timing =
        json::requireBool(tel, "host_timing", "job: telemetry");
    spec.host_stats = json::requireBool(opts, "host_stats", what);
    return spec;
}

std::string
stringAt(const json::Value &v, const char *key, const char *fallback)
{
    return v.at(key).isString() ? v.at(key).asString() : fallback;
}

bool
boolAt(const json::Value &v, const char *key)
{
    return v.at(key).kind() == json::Value::Kind::Bool &&
           v.at(key).asBool();
}

json::Value
errorResponse(const std::string &op, const std::string &error,
              bool retriable)
{
    json::Value o{json::Members{}};
    o.set("ok", false);
    o.set("op", op);
    o.set("error", error);
    if (retriable)
        o.set("retriable", true);
    return o;
}

LineChannel::~LineChannel()
{
    close();
}

LineChannel::LineChannel(LineChannel &&other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_))
{
    other.fd_ = -1;
}

LineChannel &
LineChannel::operator=(LineChannel &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        buf_ = std::move(other.buf_);
        other.fd_ = -1;
    }
    return *this;
}

bool
LineChannel::readLine(std::string &out)
{
    while (true) {
        const std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            out.assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            return true;
        }
        if (fd_ < 0)
            return false;
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;  // EOF; any partial line is dropped
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
LineChannel::writeLine(const std::string &line)
{
    if (fd_ < 0)
        return false;
    std::string framed = line;
    framed += '\n';
    std::size_t off = 0;
    while (off < framed.size()) {
        // MSG_NOSIGNAL: a dead peer must be an error return, not a
        // process-killing SIGPIPE in the middle of serving.
        const ssize_t n = ::send(fd_, framed.data() + off,
                                 framed.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
LineChannel::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
LineChannel::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

LineChannel
connectUnix(const std::string &path)
{
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        errno = ENAMETOOLONG;
        return LineChannel();
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return LineChannel();
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return LineChannel();
    }
    return LineChannel(fd);
}

int
listenUnix(const std::string &path, int backlog)
{
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        errno = ENAMETOOLONG;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    // A stale socket file from a crashed daemon would make bind()
    // fail forever; connecting clients get ECONNREFUSED from it, so
    // replacing it is always safe.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, backlog) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return -1;
    }
    return fd;
}

} // namespace service
} // namespace carve
