#!/usr/bin/env python3
"""perfbench: the h2reuse benchmark, end to end and layer by layer.

    python3 perfbench/run.py --workload study|optimize|replay|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --ledger --workload study --seed 42

Builds the library and the perfbench_workload driver from source into
.bench_build/ (RelWithDebInfo; Debug and sanitizer builds are refused),
then runs each workload in its own process:

  study     experiments::run_study, threads=1, streaming
  optimize  optimize::run_optimize over all 16 policy points, threads=1
  replay    proxy::collect_traces, then proxy::replay_traces for the
            worker and the shared pool architecture, threads=3

A run measures six populations, each generated from its own seed
(seed * 6 + k), one rep of each per round, round after round: six small
populations average out how much work a single seed's sites happen to
need, and short reps give every population dozens of samples per run.

--trace 0 measures the untraced entry points and prints the end-to-end
metrics; --trace 1 adds traced passes that time every layer's public
functions from outside and prints the per-layer metrics and the ledger
ranked by self time. Every run checks each population's deterministic
document (conservation identities, repeatability, the digest recorded for
the seed, the traced pass reproducing the untraced bytes) and the study's
Table 1 shares pooled over its populations, first reruns a tiny reference
run whose digests are recorded, and prints, as its last line, one JSON
object: correct, attempted, failed and metrics. A full record with
provenance (host, compiler, build type, git rev) is appended to
.bench_build/results.jsonl.

On a shared host the speed of the machine drifts by a third over minutes
as other tenants come and go, which no statistic over one run's reps can
remove. So a fixed calibration kernel (workload.cpp) runs before every
rep, and the timed metrics are reported at the kernel's reference speed:
sites_per_s, cpu_us_per_site and setup_s divide each rep's (and set-up's)
time by the kernel's time next to it, take medians, and multiply by
CALIBRATION_REFERENCE_S. A change to the library moves them; a slower or
faster moment of the host does not. On a 4-vCPU Xeon VM whose raw
per-site CPU time drifted 26% (quartile distance over median) across ten
seeds, the calibrated one spread 7%. The record file keeps the raw times
as well.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench_workload")
WORKLOADS = ("study", "optimize", "replay")
BUILD_TYPE = "RelWithDebInfo"
REFUSED_BUILD_TYPES = ("", "Debug")
# A workload process that takes longer than this is killed and failed.
RUN_TIMEOUT_S = 170
# The study's Table 1 shares, pooled over a run's populations, may drift at
# most this far (mean |delta| in percentage points) from the paper before
# a run counts as incorrect, on any seed. The library measures 2.9-5.3 pp
# over run seeds 1-20 at the benchmark's populations; recorded digests pin
# the exact bytes.
TABLE1_LIMIT_PP = 8.0

# Every run first reruns these tiny populations and compares their digests
# with the recorded ones, so a run checks the program's output against a
# known reference whatever seed it measures.
CANARY_SEED = 42
CANARY_SCALE = 0.05

# CPU seconds the calibration kernel (workload.cpp) is taken to need at the
# reference speed; timed metrics are reported at that speed.
CALIBRATION_REFERENCE_S = 0.010

# Every metric run.py can produce, with its unit. BENCHMARK.json picks the
# ones a run reports; the rest go to the human table and the record file.
END_TO_END_UNITS = {
    "sites_per_s": "sites/s",
    "cpu_us_per_site": "us",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "error_share": "ratio",
    "table1_delta_pp": "pp",
}

SPAN_LAYERS = (
    "web.setup", "web.generate_site", "dns.flush_cache", "browser.load",
    "netlog.stitch_site", "har.export_site", "har.import_site",
    "core.prepare", "core.classify", "core.classify_replay", "core.add_site",
    "optimize.tally_add", "journal.fold", "output.write",
    "pool.collect_traces", "pool.replay_traces.worker",
    "pool.replay_traces.shared",
)
# Spans kept outside the ledger sum (ledger.hpp).
EXCLUDED_SPANS = ("netlog.stitch_site", "wait.campaigns")


def per_layer_units():
    units = {}
    for layer in SPAN_LAYERS:
        units[layer + ".self_s"] = "s"
        units[layer + ".calls"] = "count"
    units.update({
        "browser.load.p50_us": "us", "browser.load.p99_us": "us",
        "site.p50_us": "us", "site.p99_us": "us",
        "unattributed.self_s": "s", "ledger.total_s": "s",
        "traced.wall_s": "s", "tracing.overhead_us_per_site": "us",
        "dns.queries": "count", "dns.cache_hit_ratio": "ratio",
        "net.connect_attempts": "count", "tls.handshakes": "count",
        "h2.requests": "count", "netlog.events": "count",
        "har.used_ratio": "ratio", "core.connections": "count",
        "core.pairs": "count", "journal.windows": "count",
        "pool.requests_served": "count", "pool.reuse_ratio.worker": "ratio",
        "pool.reuse_ratio.shared": "ratio",
        "crawl.alexa.wall_s": "s", "crawl.nofetch.wall_s": "s",
        "crawl.har.wall_s": "s", "crawl.optimize.wall_s": "s",
        "crawl.collect.wall_s": "s", "crawl.busy_share": "ratio",
        "crawl.queue_wait_s": "s", "crawl.workers": "count",
        "replay.threads": "count",
    })
    return units


PER_LAYER_UNITS = per_layer_units()


class BenchError(Exception):
    """A problem that must stop the benchmark without a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build

def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found next to perfbench/ "
                         "(expected src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_workload", "-j", str(nproc())])


def run_build_step(command):
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=850)
    if done.returncode != 0:
        log(done.stdout[-4000:])
        raise BenchError("build step failed: " + " ".join(command))


# ------------------------------------------------------------ provenance

def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git(*args):
    try:
        done = subprocess.run(["git", "-C", ROOT] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over every file of src/ and perfbench/, path and bytes."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance():
    done = subprocess.run([BINARY, "--provenance"], stdout=subprocess.PIPE,
                          text=True, timeout=30, check=True)
    build_info = json.loads(done.stdout)
    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "sanitizers": build_info["sanitizers"],
        "ndebug": build_info["ndebug"],
        "optimized": build_info["optimized"],
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
    }


def refuse_unfit_build(prov):
    if prov["build_type"] in REFUSED_BUILD_TYPES or not prov["optimized"]:
        raise BenchError("refusing to record from a %r build"
                         % (prov["build_type"] or "unoptimized"))
    if prov["sanitizers"]:
        raise BenchError("refusing to record from a sanitizer build (%s)"
                         % ", ".join(prov["sanitizers"]))


# --------------------------------------------------------------- checks

def load_digests():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        return json.load(f)


def sha256_file(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def share(part, whole):
    return 0.0 if whole == 0 else 100.0 * part / whole


def table1_checks(doc):
    """The 16 Table 1 shares of bench_reproduction_score: (paper, ours)."""
    reports = doc["reports"]

    def redundant_sites(r):
        return share(r["redundant_sites"], r["h2_sites"])

    def redundant_conns(r):
        return share(r["redundant_connections"], r["total_connections"])

    def cause_sites(r, cause):
        return share(r["causes"][cause]["sites"], r["h2_sites"])

    def cause_conns(r, cause):
        return share(r["causes"][cause]["connections"],
                     r["total_connections"])

    har = reports["har_endless"]
    har_imm = reports["har_immediate"]
    alexa = reports["alexa_exact"]
    nofetch = reports["nofetch_exact"]
    cut = 0.0
    if alexa["redundant_connections"]:
        cut = 100.0 * (1.0 - nofetch["redundant_connections"]
                       / alexa["redundant_connections"])
    return [
        (76, redundant_sites(har)), (27, redundant_conns(har)),
        (70, cause_sites(har, "IP")), (43, cause_sites(har, "CRED")),
        (10, cause_sites(har, "CERT")), (38, redundant_sites(har_imm)),
        (95, redundant_sites(alexa)), (35, redundant_conns(alexa)),
        (88, cause_sites(alexa, "IP")), (79, cause_sites(alexa, "CRED")),
        (17, cause_sites(alexa, "CERT")), (28, cause_conns(alexa, "IP")),
        (8, cause_conns(alexa, "CRED")), (1, cause_conns(alexa, "CERT")),
        (0, cause_sites(nofetch, "CRED")), (25, cut),
    ]


TABLE1_REPORTS = ("har_endless", "har_immediate", "alexa_exact",
                  "nofetch_exact")
TABLE1_FIELDS = ("h2_sites", "redundant_sites", "redundant_connections",
                 "total_connections")
TABLE1_CAUSES = ("IP", "CRED", "CERT")


def pooled_study(docs):
    """The study documents of a run's populations as one: the report
    counts Table 1 reads, summed."""
    reports = {}
    for name in TABLE1_REPORTS:
        pooled = {field: 0 for field in TABLE1_FIELDS}
        pooled["causes"] = {cause: {"sites": 0, "connections": 0}
                            for cause in TABLE1_CAUSES}
        for doc in docs:
            report = doc["reports"][name]
            for field in TABLE1_FIELDS:
                pooled[field] += report[field]
            for cause in TABLE1_CAUSES:
                for field in ("sites", "connections"):
                    pooled["causes"][cause][field] += \
                        report["causes"][cause][field]
        reports[name] = pooled
    return {"reports": reports}


def table1_delta_pp(docs):
    """Mean |ours - paper| over the 16 Table 1 shares of the pooled run."""
    checks = table1_checks(pooled_study(docs))
    return sum(abs(ours - paper) for paper, ours in checks) / len(checks)


def fetch_identity(name, failures, problems):
    if failures["attempts"] != failures["successful"] + failures["failed"]:
        problems.append("%s: fetch_attempts != successful + failed" % name)


def check_study(doc, pop, problems):
    pops = pop["population"]
    summaries = doc["summaries"]
    reports = doc["reports"]
    for name in ("alexa", "nofetch", "har"):
        s = summaries[name]
        f = s["failures"]
        fetch_identity(name, {"attempts": f["fetch_attempts"],
                              "successful": f["successful_fetches"],
                              "failed": f["failed_fetches"]}, problems)
        if s["sites_visited"] + s["sites_unreachable"] != pops[name]:
            problems.append("%s: visited + unreachable != population" % name)
    for report, campaign in (("alexa_exact", "alexa"),
                             ("alexa_endless", "alexa"),
                             ("nofetch_exact", "nofetch"),
                             ("har_endless", "har"),
                             ("har_immediate", "har")):
        if reports[report]["analyzed_sites"] != \
                summaries[campaign]["sites_visited"]:
            problems.append("%s: analyzed_sites != sites visited" % report)


def check_optimize(doc, pop, problems):
    pops = pop["population"]
    s = doc["summary"]
    if s["sites_visited"] + s["sites_unreachable"] != pops["optimize"]:
        problems.append("optimize: visited + unreachable != population")
    fetch_identity("optimize", pop["fetch"]["optimize"], problems)
    ranking = doc["ranking"]
    if len(ranking) != 16:
        problems.append("optimize: %d policy points, expected 16"
                        % len(ranking))
    bases = {(e["tally"]["sites"], e["tally"]["baseline_connections"],
              e["tally"]["baseline_redundant"]) for e in ranking}
    if len(bases) != 1:
        problems.append("optimize: policy points disagree on the baseline")
    if any(e["tally"]["recovered"] + e["tally"]["remaining_redundant"] >
           e["tally"]["baseline_connections"] for e in ranking):
        problems.append("optimize: recovered + remaining > connections")


def check_replay(doc, pop, problems):
    pops = pop["population"]
    for arch in ("worker", "shared"):
        r = doc[arch]
        if r["served"] != r["reuse_hits"] + r["fresh_connects"]:
            problems.append("%s: served != reuse_hits + fresh_connects"
                            % arch)
        if r["reuse_hits"] != r["reuse_busy"] + r["reuse_idle"]:
            problems.append("%s: reuse_hits != busy + idle" % arch)
        if r["fresh_connects"] != sum(r["fresh_causes"].values()):
            problems.append("%s: fresh causes do not sum up" % arch)
        if r["requests"] != r["served"]:
            problems.append("%s: requests != served at fault rate 0" % arch)
        if r["sites"] != pops["replay"]:
            problems.append("%s: sites != population" % arch)


CHECKERS = {"study": check_study, "optimize": check_optimize,
            "replay": check_replay}


def doc_path(out_dir, k, traced=False):
    """Population k's document, as perfbench_workload writes it."""
    return os.path.join(out_dir, "%s-%d.json" % (
        "doc-traced" if traced else "doc", k))


def check_document(workload, scale, seed, k, out_dir, pop, problems):
    """Checks population k's deterministic document; returns (sha256,
    parsed doc)."""
    path = doc_path(out_dir, k)
    digest = sha256_file(path)
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as error:
            problems.append("population %d: document is not JSON: %s"
                            % (k, error))
            return digest, None
    found = []
    try:
        CHECKERS[workload](doc, pop, found)
    except (KeyError, TypeError, ZeroDivisionError) as error:
        found.append("document is malformed: %r" % error)
    problems += ["population %d: %s" % (k, p) for p in found]
    recorded = load_digests().get("%s@%g" % (workload, scale), {})
    entry = recorded.get(str(seed))
    if entry is not None and entry["sha256"][k] != digest:
        problems.append("population %d: digest %s differs from the one "
                        "recorded for %s seed %d"
                        % (k, digest[:16], entry["role"], seed))
    return digest, doc


def check_ledger(pass_, problems):
    layers = pass_["layers"]
    counted = sum(v["self_ns"] for k, v in layers.items()
                  if k not in EXCLUDED_SPANS)
    if counted + pass_["unattributed_ns"] != pass_["total_ns"]:
        problems.append("ledger does not close: %d + %d != %d" % (
            counted, pass_["unattributed_ns"], pass_["total_ns"]))
    if pass_["unattributed_ns"] < 0:
        problems.append("ledger: negative unattributed time")


# -------------------------------------------------------------- metrics

def least_disturbed(raw, key):
    """Seconds of `key` ("wall_s" or "cpu_s") one undisturbed round of the
    run takes: each population's fastest rep, summed."""
    return sum(min(rep[key] for rep in pop["reps"])
               for pop in raw["populations"])


def calibrated(raw, key):
    """Seconds of `key` ("wall_s" or "cpu_s") one round of the run takes
    at the reference speed: each population's median over its reps of the
    rep's time divided by the calibration kernels' (their wall time for
    wall_s, their mean CPU for cpu_s), summed, times the kernel's reference
    time."""
    kernel = "calibration_wall_s" if key == "wall_s" else "calibration_s"
    return CALIBRATION_REFERENCE_S * sum(
        statistics.median(rep[key] / rep[kernel] for rep in pop["reps"])
        for pop in raw["populations"])


def calibrated_setup(raw):
    """Median set-up time at the reference speed."""
    return CALIBRATION_REFERENCE_S * statistics.median(
        sample / rep["calibration_s"]
        for pop in raw["populations"] for rep in pop["reps"]
        for sample in rep["setup_s"])


def raw_times(raw):
    """The timed metrics as the host gave them, without calibration: each
    population's fastest rep, and the kernel's median time."""
    sites = raw["sites"]
    return {
        "sites_per_s": sites / least_disturbed(raw, "wall_s"),
        "cpu_us_per_site": least_disturbed(raw, "cpu_s") / sites * 1e6,
        "calibration_s": statistics.median(
            rep["calibration_s"] for pop in raw["populations"]
            for rep in pop["reps"]),
        "calibration_wall_s": statistics.median(
            rep["calibration_wall_s"] for pop in raw["populations"]
            for rep in pop["reps"]),
    }


def end_to_end(raw, docs, failed):
    sites = raw["sites"]
    metrics = {
        "sites_per_s": sites / calibrated(raw, "wall_s"),
        "cpu_us_per_site": calibrated(raw, "cpu_s") / sites * 1e6,
        "peak_rss_mib": raw["peak_rss_kib"] / 1024.0,
        "setup_s": calibrated_setup(raw),
        "error_share": 1.0 if failed else 0.0,
    }
    if raw["workload"] == "study" and docs and None not in docs:
        metrics["table1_delta_pp"] = table1_delta_pp(docs)
    return metrics


def per_layer(raw):
    """Per-layer metrics of the ledger pass (the median-wall traced pass)."""
    pass_ = raw["passes"][raw["ledger_pass"]]
    sites = raw["sites"]
    metrics = {}
    for layer in SPAN_LAYERS:
        entry = pass_["layers"].get(layer, {"self_ns": 0, "calls": 0})
        metrics[layer + ".self_s"] = entry["self_ns"] / 1e9
        metrics[layer + ".calls"] = entry["calls"]
    counts = raw["counts"]
    queries = counts["dns.queries"]
    har_total = counts["har.total_entries"]
    reuse = counts["pool.reuse_ratio"]
    # Least-disturbed traced pass against least-disturbed untraced round.
    overhead_s = (min(p["cpu_s"] for p in raw["passes"]) -
                  least_disturbed(raw, "cpu_s"))
    metrics.update({
        "browser.load.p50_us": pass_["load_p50_ns"] / 1e3,
        "browser.load.p99_us": pass_["load_p99_ns"] / 1e3,
        "site.p50_us": pass_["site_p50_ns"] / 1e3,
        "site.p99_us": pass_["site_p99_ns"] / 1e3,
        "unattributed.self_s": pass_["unattributed_ns"] / 1e9,
        "ledger.total_s": pass_["total_ns"] / 1e9,
        "traced.wall_s": pass_["wall_s"],
        "tracing.overhead_us_per_site": overhead_s / sites * 1e6,
        "dns.queries": queries,
        "dns.cache_hit_ratio":
            counts["dns.cache_hits"] / queries if queries else 0.0,
        "net.connect_attempts": counts["net.connect_attempts"],
        "tls.handshakes": counts["tls.handshakes"],
        "h2.requests": counts["h2.requests"],
        "netlog.events": counts["netlog.events"],
        "har.used_ratio":
            counts["har.used_entries"] / har_total if har_total else 0.0,
        "core.connections": counts["core.connections"],
        "core.pairs": counts["core.pairs"],
        "journal.windows": counts["journal.windows"],
        "pool.requests_served": counts["pool.requests_served"],
        "pool.reuse_ratio.worker": reuse.get("worker", 0.0),
        "pool.reuse_ratio.shared": reuse.get("shared", 0.0),
        "crawl.workers": raw["crawl_workers"],
        "replay.threads": raw["replay_threads"],
    })
    # Each population's first untraced rep, summed by campaign.
    crawls = {}
    for pop in raw["populations"]:
        for name, figures in pop["crawls"].items():
            total = crawls.setdefault(name, dict.fromkeys(figures, 0.0))
            for key, value in figures.items():
                total[key] += value
    if "collect" in crawls:
        # collect_traces returns no CrawlSummary: the traced pass read
        # worker CPU and wall on the worker threads instead.
        crawls["collect"] = counts["collect"]
    cpu = sum(c["worker_cpu_s"] for c in crawls.values())
    wall = sum(c["worker_wall_s"] for c in crawls.values())
    for name in ("alexa", "nofetch", "har", "optimize", "collect"):
        metrics["crawl.%s.wall_s" % name] = crawls.get(name, {}).get(
            "wall_s", 0.0)
    metrics["crawl.busy_share"] = cpu / wall if wall else 0.0
    metrics["crawl.queue_wait_s"] = sum(
        c["queue_wait_s"] for c in crawls.values())
    return metrics, pass_


def print_ledger(workload, pass_, layer_map):
    total = pass_["total_ns"]
    rows = [(k, v) for k, v in pass_["layers"].items()
            if k not in EXCLUDED_SPANS]
    rows.append(("unattributed", {"self_ns": pass_["unattributed_ns"],
                                  "calls": 0}))
    rows.sort(key=lambda kv: -kv[1]["self_ns"])
    print("ledger %s: %.3f s of traced thread time (wall %.3f s), ranked by "
          "self time" % (workload, total / 1e9, pass_["wall_s"]))
    print("  %-26s %9s %7s %9s  %s" % ("layer", "self_s", "share", "calls",
                                       "moves"))
    for name, entry in rows:
        moves = layer_map.get(name, {}).get("moves", "-")
        print("  %-26s %9.4f %6.1f%% %9d  %s" % (
            name, entry["self_ns"] / 1e9,
            100.0 * entry["self_ns"] / total if total else 0.0,
            entry["calls"], moves))
    for name in EXCLUDED_SPANS:
        if name in pass_["layers"]:
            entry = pass_["layers"][name]
            print("  %-26s %9.4f %7s %9d  (outside the ledger sum)" % (
                name, entry["self_ns"] / 1e9, "", entry["calls"]))


# ----------------------------------------------------------------- runs

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def select(metrics, declared, units):
    """The declared metrics, in declaration order, with their units."""
    out = {}
    for entry in declared:
        name = entry["name"]
        if units.get(name) != entry["unit"]:
            raise BenchError("metric %s: unit %r in BENCHMARK.json, %r here"
                             % (name, entry["unit"], units.get(name)))
        out[name] = {"value": metrics[name], "unit": entry["unit"]}
    return out


def out_dir_for(workload, seed):
    path = os.path.join(BUILD_DIR, "out", "%s-seed%d" % (workload, seed))
    os.makedirs(path, exist_ok=True)
    for name in os.listdir(path):
        if name.endswith(".json") or name == "spans.tsv":
            os.remove(os.path.join(path, name))
    return path


def launch(workload, seed, seconds, trace, scale, out_dir):
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--scale", repr(scale), "--nproc", str(nproc()),
               "--out-dir", out_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % RUN_TIMEOUT_S
    if done.returncode != 0:
        return None, (done.stderr.strip() or
                      "exit code %d" % done.returncode)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError) as error:
        return None, "unreadable driver output: %s" % error


def evaluate(workload, seed, scale, raw, out_dir, trace):
    """Output checks of one finished workload process; returns (digests,
    docs, problems) with one digest and document per population."""
    problems = []
    digests, docs = [], []
    for k, pop in enumerate(raw["populations"]):
        if not pop["reps_identical"]:
            problems.append("population %d: untraced reps produced "
                            "different documents" % k)
        digest, doc = check_document(workload, scale, seed, k, out_dir, pop,
                                     problems)
        digests.append(digest)
        docs.append(doc)
    if workload == "study" and None not in docs:
        delta = table1_delta_pp(docs)
        if delta > TABLE1_LIMIT_PP:
            problems.append("Table 1 drifted %.2f pp from the paper "
                            "(limit %.1f)" % (delta, TABLE1_LIMIT_PP))
    limit = nproc()
    if raw["crawl_workers"] > limit or raw["replay_threads"] > limit:
        problems.append("thread budget: %d crawl workers, %d replay threads "
                        "on %d processors" % (raw["crawl_workers"],
                                              raw["replay_threads"], limit))
    if trace:
        for k, digest in enumerate(digests):
            if sha256_file(doc_path(out_dir, k, traced=True)) != digest:
                problems.append("population %d: traced document digest "
                                "differs from untraced" % k)
        for pass_ in raw["passes"]:
            if not pass_["doc_identical"]:
                problems.append("a traced pass changed the document")
            if not pass_["metrics_identical"]:
                problems.append("a traced pass changed the metric snapshot")
            check_ledger(pass_, problems)
        if raw["counts"]["probe_mismatches"]:
            problems.append("the NetLog probe disagreed with Browser::load")
    return digests, docs, problems


def reference_check(workload):
    """Reruns the tiny reference population; returns a problem or None."""
    out_dir = out_dir_for(workload + "-reference", CANARY_SEED)
    raw, error = launch(workload, CANARY_SEED, 0.0, False, CANARY_SCALE,
                        out_dir)
    if raw is None:
        return "reference run failed: " + error
    key = "%s@%g" % (workload, CANARY_SCALE)
    recorded = load_digests()[key][str(CANARY_SEED)]["sha256"]
    for k, expected in enumerate(recorded):
        digest = sha256_file(doc_path(out_dir, k))
        if digest != expected:
            return ("reference population %d of %s seed %d: digest %s, "
                    "recorded %s" % (k, key, CANARY_SEED, digest[:16],
                                     expected[:16]))
    return None


def run_workload(workload, args, bench, prov):
    """Runs one workload; returns (result line dict, record dict)."""
    reference = reference_check(workload)
    out_dir = out_dir_for(workload, args.seed)
    raw, error = launch(workload, args.seed, args.seconds, args.trace,
                        args.scale, out_dir)
    return score(workload, args, bench, prov, raw, error, out_dir,
                 [reference] if reference else [])


def score(workload, args, bench, prov, raw, error, out_dir, problems=()):
    """Checks a finished workload process's outputs, prints its report and
    returns (result line dict, record dict). `problems` carries checks
    already failed before the run."""
    scale = args.scale
    problems = list(problems)
    if raw is None:
        # The site count is unknown; the one attempt failed.
        problems.append("workload process failed: " + error)
        digests, docs, attempted = [], [], 1
    else:
        digests, docs, found = evaluate(workload, args.seed, scale, raw,
                                        out_dir, args.trace)
        problems += found
        attempted = raw["sites"] * len(raw.get("passes", [])) + sum(
            pop["sites"] * len(pop["reps"]) for pop in raw["populations"])
    failed = attempted if problems else 0
    correct = not problems

    e2e = {}
    layers = {}
    pass_ = None
    if raw is not None:
        e2e = end_to_end(raw, docs, failed)
        if args.trace:
            layers, pass_ = per_layer(raw)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    values = layers if args.trace else e2e
    if raw is None:
        values = {entry["name"]: 0.0 for entry in declared}
    reported = select(values, declared, units)

    print("perfbench %s seed=%d scale=%g trace=%d: %s" % (
        workload, args.seed, scale, int(args.trace),
        "ok" if correct else "FAILED"))
    print("  host %s, nproc %d; %s %s%s; rev %s%s" % (
        prov["cpu_model"], prov["nproc"], prov["compiler"],
        prov["build_type"],
        " +" + ",".join(prov["sanitizers"]) if prov["sanitizers"] else "",
        (prov["git_rev"] or "unknown")[:12],
        " (dirty)" if prov["git_dirty"] else ""))
    if raw is not None:
        pops = raw["populations"]
        print("  %d populations of %d sites in all, %d untraced rounds; "
              "document sha256 %s" % (
                  len(pops), raw["sites"], min(len(p["reps"]) for p in pops),
                  " ".join(d[:8] for d in digests)))
    for name, value in e2e.items():
        print("  %-18s %14.6g %s" % (name, value, END_TO_END_UNITS[name]))
    for problem in problems:
        print("  check failed: " + problem)
    if pass_ is not None:
        layer_map = load_layer_map()
        print_ledger(workload, pass_, layer_map)

    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "provenance": prov,
        "workload": workload, "seed": args.seed, "scale": scale,
        "seconds": args.seconds, "trace": int(args.trace),
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "sha256": digests,
        "end_to_end": e2e, "per_layer": layers,
        "raw_times": raw_times(raw) if raw is not None else {},
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": reported}
    return result, record


def load_layer_map():
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as f:
        return json.load(f)


def append_record(record):
    with open(os.path.join(BUILD_DIR, "results.jsonl"), "a",
              encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv):
    parser = argparse.ArgumentParser(
        description="h2reuse benchmark: end to end and layer by layer")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", action="store_true",
                        help="one traced pass; print the ranked ledger")
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.ledger:
        args.trace = 1
        args.seconds = min(args.seconds, 0.0)
    if args.seed < 0 or args.scale <= 0 or args.seconds < 0:
        raise BenchError("seed and seconds must be >= 0, scale > 0")

    bench = load_benchmark()
    build()
    prov = provenance()
    refuse_unfit_build(prov)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        result, record = run_workload(workload, args, bench, prov)
        append_record(record)
        results.append((workload, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (w, name): value
                        for w, r in results
                        for name, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        log("perfbench: " + str(error))
        sys.exit(2)
