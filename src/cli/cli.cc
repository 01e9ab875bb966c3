#include "cli/cli.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "cli/export.h"
#include "cli/serve.h"
#include "common/crash.h"
#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/string_util.h"
#include "common/version.h"
#include "core/constrained_allocation.h"
#include "core/explain.h"
#include "core/incremental.h"
#include "core/optimal_allocation.h"
#include "core/rc_si_allocation.h"
#include "core/robustness.h"
#include "core/split_schedule.h"
#include "core/witness.h"
#include "iso/allowed.h"
#include "iso/materialize.h"
#include "mvcc/concurrent_driver.h"
#include "mvcc/concurrent_engine.h"
#include "mvcc/driver.h"
#include "mvcc/recorder.h"
#include "mvcc/roundtrip.h"
#include "mvcc/trace.h"
#include "mvcc/txn_trace.h"
#include "oracle/brute_force.h"
#include "promote/export.h"
#include "promote/optimizer.h"
#include "oracle/split_enumerator.h"
#include "oracle/statistics.h"
#include "schedule/anomaly.h"
#include "schedule/dot.h"
#include "schedule/serializability.h"
#include "templates/parser.h"
#include "templates/predicate.h"
#include "templates/promote.h"
#include "templates/robustness.h"
#include "templates/witness.h"
#include "txn/parser.h"
#include "workloads/registry.h"
#include "workloads/stats.h"

namespace mvrob {
namespace {

// The flag table: each flag's name, kind, range, default, help text and the
// commands it applies to are declared once, in FlagTable(). Parsing, range
// checks, typed reads and both help screens are driven from it.

struct CommandSpec {
  const char* name;
  const char* summary;
};

// The commands that take flags; bit i of FlagSpec::commands is kCommands[i].
constexpr CommandSpec kCommands[] = {
    {"check", "decide robustness of an allocation (Algorithm 1)"},
    {"allocate", "compute the optimal robust allocation (Algorithm 2)"},
    {"explore", "analyze one schedule: dependencies, SeG, allowed-under"},
    {"census", "enumerate all interleavings: allowed / anomalous counts"},
    {"templates", "per-program allocation for a template workload"},
    {"report", "full markdown analysis of a workload"},
    {"simulate", "execute the workload on the MVCC engine and report outcomes"},
    {"validate", "round-trip recorded engine runs through the formal checker"},
    {"crosscheck", "validate Algorithm 1 against the exhaustive oracles"},
    {"shell", "interactive session: add transactions, watch the optimum move"},
    {"promote", "find reads to promote (SELECT ... FOR UPDATE) so a strictly "
                "cheaper allocation becomes robust"},
    {"serve", "run the workload continuously with live telemetry over HTTP "
              "(/metrics, /witness, /allocation, /trace, /debug/pprof, ...)"},
};

enum : uint32_t {
  kCheck = 1 << 0, kAllocate = 1 << 1, kExplore = 1 << 2, kCensus = 1 << 3,
  kTemplates = 1 << 4, kReport = 1 << 5, kSimulate = 1 << 6,
  kValidate = 1 << 7, kCrossCheck = 1 << 8, kShell = 1 << 9,
  kPromote = 1 << 10, kServe = 1 << 11,
  kGlobal = (1u << std::size(kCommands)) - 1,
  // The readers of LoadTxns, of LoadAllocation, and the engine runners.
  kWorkload = kGlobal & ~(kTemplates | kShell),
  kAllocation = kCheck | kExplore | kCensus | kSimulate | kValidate |
                kCrossCheck | kServe,
  kEngine = kSimulate | kValidate | kServe,
};

enum class FlagKind { kSwitch, kString, kInt, kUint64 };

constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
constexpr uint64_t kUint64Max = std::numeric_limits<uint64_t>::max();

struct FlagSpec {
  const char* name;  // Without the leading "--".
  FlagKind kind;
  const char* value;  // The value's placeholder in the help text.
  uint64_t min;       // Inclusive range of a numeric value.
  uint64_t max;
  std::string def;  // The value when absent; "" = none (a number reads 0).
  uint32_t commands;
  std::string help;
  bool numeric() const {
    return kind == FlagKind::kInt || kind == FlagKind::kUint64;
  }
};

FlagSpec Switch(const char* name, uint32_t commands, const char* help) {
  return {name, FlagKind::kSwitch, "", 0, 0, "", commands, help};
}

FlagSpec Text(const char* name, const char* value, uint32_t commands,
              std::string help, std::string def = "") {
  return {name, FlagKind::kString, value, 0, 0, def, commands, help};
}

FlagSpec Number(FlagKind kind, const char* name, const char* value,
                uint64_t min, uint64_t max, std::optional<uint64_t> def,
                uint32_t commands, const char* help) {
  return {name, kind, value, min, max, def ? std::to_string(*def) : "",
          commands, help};
}

const std::vector<FlagSpec>& FlagTable() {
  using enum FlagKind;
  static const std::vector<FlagSpec> table = {
      Text("txns", "<text|@file>", kWorkload,
           "transaction DSL, one \"T1: R[x] W[y]\" per line"),
      Text("workload", "<spec>", kWorkload,
           "built-in workload instead of --txns, e.g. tpcc:w=2,d=3 "
           "smallbank:c=4 auction ycsb:a synthetic:n=10,o=8,w=40,h=30,seed=3"),
      Text("alloc", "<spec>", kAllocation,
           "allocation \"T1=RC T2=SI\"; others get --default"),
      Text("default", "<RC|SI|SSI>", kAllocation | kPromote,
           "level of transactions the allocation leaves out", "SI"),
      Text("templates", "<text|@file>", kTemplates,
           "template DSL; v2 adds predicate reads R[key_$lo..$hi] / "
           "R[key_*D], functions and constraints (docs/templates.md)"),
      Text("schedule", "<text>", kExplore,
           "operation order \"R1[x] W2[x] C2 C1\""),
      Switch("dot", kExplore, "also print SeG(s) as a Graphviz digraph"),
      Switch("timeline", kExplore, "also print a per-transaction timeline"),
      Number(kUint64, "max", "<n>", 0, kUint64Max, 2000000, kCensus,
             "refuse to enumerate more interleavings than this"),
      Switch("rcsi", kAllocate | kTemplates, "restrict to {RC, SI}"),
      Switch("explain", kAllocate | kTemplates,
             "print why no transaction (template) can run lower"),
      Text("pin", "<spec>", kAllocate, "fix transactions to exact levels"),
      Text("atmost", "<spec>", kAllocate, "per-transaction upper bounds"),
      Switch("json", kCheck | kAllocate | kPromote, "machine-readable output"),
      Text("witness-json", "<file|->", kCheck | kAllocate | kShell | kTemplates,
           "witness provenance as JSON: each counterexample edge's conflict "
           "type, operation pair and Definition 3.1 condition ('-' = stdout)"),
      Text("witness-dot", "<file|->", kCheck | kAllocate | kShell,
           "the same witness as a Graphviz digraph"),
      Number(kInt, "threads", "<n>", 0, kIntMax, CheckOptions().num_threads,
             kCheck | kAllocate | kReport | kValidate | kPromote | kServe,
             "worker threads for robustness checks, 0 = all cores"),
      Number(kInt, "runs", "<n>", 0, kIntMax, {}, kSimulate | kValidate,
             "engine executions (simulate: >= 1, default 20; validate: "
             "default 200)"),
      Number(kInt, "concurrency", "<n>", 1, kIntMax, 4, kEngine | kPromote,
             "sessions in flight"),
      Number(kUint64, "seed", "<n>", 0, kUint64Max, 0,
             kEngine | kPromote | kTemplates, "base RNG seed of engine runs"),
      Number(kInt, "engine-threads", "<n>", 1, 256, 1, kEngine,
             "MVCC engine worker threads: 1 = the deterministic driver, > 1 "
             "= the sharded many-core engine"),
      Number(kInt, "engine-shards", "<n>", 1, 1 << 16, {}, kEngine,
             "key-space shards of the many-core engine (needs "
             "--engine-threads > 1; omitted: max(16, 4*threads))"),
      Text("record-schedule", "<file>", kSimulate,
           "replayable schedule file of the last engine run"),
      Text("record-trace", "<file>", kSimulate,
           "Chrome trace_event timeline of the last engine run"),
      Number(kUint64, "trace-sample", "<n>", 1, kUint64Max, {},
             kSimulate | kServe,
             "trace 1 in <n> logical transactions as per-attempt spans with "
             "causal abort attribution (into --trace-out; serve: /trace)"),
      Number(kInt, "budget", "<n>", 0, kIntMax, PromoteOptions().max_promotions,
             kPromote, "promote at most <n> reads"),
      Text("target", "<spec|level>", kPromote,
           "find promotions that make this allocation robust (\"T1=RC "
           "T2=SI\", others at --default, here RC) or this uniform level"),
      Text("promotion-json", "<file|->", kPromote,
           "promotion-plan provenance as JSON (docs/formats.md)"),
      Number(kInt, "validate-runs", "<n>", 0, kIntMax, 0, kPromote | kTemplates,
             "certify the result with <n> recorded engine runs, 0 = skip; "
             "exits 2 on any disagreement"),
      Number(kInt, "weight-si", "<n>", 0, 1 << 20, PromoteOptions().weight_si,
             kPromote, "allocation cost of one SI slot"),
      Number(kInt, "weight-ssi", "<n>", 0, 1 << 20, PromoteOptions().weight_ssi,
             kPromote, "allocation cost of one SSI slot"),
      Switch("no-constraints", kTemplates,
             "drop the declared constraints: the distinct-parameter baseline"),
      Number(kInt, "copies", "<n>", 1, 8,
             InstantiationOptions().copies_per_assignment,
             kTemplates, "instances per admissible parameter assignment"),
      Number(kInt, "max-instances", "<n>", 1, kIntMax,
             InstantiationOptions().max_instances, kTemplates,
             "refuse larger canonical instantiations"),
      Switch("promote", kTemplates,
             "search for template reads to promote so a strictly cheaper "
             "per-template allocation becomes robust"),
      Number(kInt, "port", "<n>", 0, 65535, 0, kServe,
             "listen port, 0 = ephemeral"),
      Text("host", "<addr>", kServe, "listen address", ServeParams().host),
      Text("port-file", "<file>", kServe,
           "write the bound port here after listening"),
      Number(kInt, "witness-interval", "<s>", 1, kIntMax, 30, kServe,
             "robustness re-check cadence"),
      Number(kInt, "duration", "<s>", 0, kIntMax, 0, kServe,
             "stop after <s> seconds, 0 = at SIGINT/SIGTERM"),
      Number(kInt, "window", "<s>", 1, 3600, 60, kServe,
             "sliding window of the live per-level series"),
      Switch("adapt", kServe,
             "adaptive allocation: re-run Algorithm 2 under cost weights from "
             "the live telemetry and hot-swap certified allocations"),
      Number(kInt, "adapt-interval", "<s>", 1, kIntMax, 30, kServe,
             "seconds between controller decisions"),
      Number(kInt, "adapt-budget", "<n>", 0, 1 << 20, 0, kServe,
             "promotion budget per decision, 0 = allocation-only"),
      Text("log-level", "<level>", kGlobal,
           "minimum stderr log severity: debug, info, warn, error, off "
           "(default info; env MVROB_LOG_LEVEL)"),
      Text("stats-json", "<file>", kGlobal,
           "write a metrics snapshot as JSON after the command (serve: on "
           "clean shutdown)"),
      Text("trace-out", "<file>", kGlobal,
           "write the phase spans as a Chrome trace_event file (serve: on "
           "clean shutdown)"),
      Number(kInt, "metrics-interval", "<s>", 1, kIntMax, {}, kGlobal,
             "rewrite the --stats-json / --trace-out files every <s> seconds "
             "while the command runs (not on serve)"),
      Number(kInt, "profile-hz", "<n>", 0, 1000, 0, kGlobal,
             "sampling CPU profiler rate per thread, 0 = off"),
      Text("profile-out", "<file>", kGlobal,
           StrCat("write the folded-stack profile here at exit (alone: "
                  "--profile-hz ", ProfilerOptions().hz, ")")),
  };
  return table;
}

const FlagSpec* FindFlag(std::string_view name) {
  auto it = std::ranges::find(FlagTable(), name, &FlagSpec::name);
  return it == FlagTable().end() ? nullptr : &*it;
}

// Strict numeric parse within the flag's range: junk ("12x", "abc"), a
// stray sign or an out-of-range value is an error, never a coerced number.
StatusOr<uint64_t> ParseNumber(const FlagSpec& flag, std::string_view text) {
  StatusOr<uint64_t> parsed = ParseUint64(text);
  const bool negative = text.starts_with('-') && ParseInt64(text).ok();
  if (!parsed.ok() && !negative) return parsed.status();
  if (negative || *parsed < flag.min || *parsed > flag.max) {
    return Status::InvalidArgument(StrCat("'", text, "' is out of range [",
                                          flag.min, ", ", flag.max, "]"));
  }
  return parsed;
}

// The flags given to one command. Reading a flag the table does not
// declare for the command is a bug in this file and aborts.
struct Flags {
  uint32_t command;  // The kCommands bit of the command.
  std::map<std::string, std::string, std::less<>> values;  // As given.

  bool Has(std::string_view name) const {
    Declared(name);
    return values.contains(name);
  }
  // The given value, else the table default ("" when there is none).
  const std::string& Get(std::string_view name) const {
    auto it = values.find(name);
    return it != values.end() ? it->second : Declared(name).def;
  }
  // A numeric flag's value, else its table default, else 0.
  uint64_t Uint64(std::string_view name) const {
    const std::string& text = Get(name);
    return text.empty() ? 0 : *ParseNumber(Declared(name), text);
  }
  int Int(std::string_view name) const {
    return static_cast<int>(Uint64(name));
  }
  const FlagSpec& Declared(std::string_view name) const {
    const FlagSpec* flag = FindFlag(name);
    if (flag == nullptr || (flag->commands & command) == 0) {
      std::cerr << "internal error: undeclared read of --" << name << "\n";
      std::abort();
    }
    return *flag;
  }
};

// A rule over two flags on the commands in `commands`.
struct FlagPair {
  uint32_t commands;
  std::string_view flag;
  std::string_view other;
};

// Flag pairs that contradict each other. The bounded and {RC,SI}
// allocators print only their allocation, so the output flags of the
// unconstrained allocator would go unread.
constexpr FlagPair kConflicts[] = {
    {kGlobal, "txns", "workload"},
    {kAllocate, "rcsi", "pin"},
    {kAllocate, "rcsi", "atmost"},
    {kAllocate, "pin", "json"},
    {kAllocate, "pin", "explain"},
    {kAllocate, "pin", "witness-json"},
    {kAllocate, "pin", "witness-dot"},
    {kAllocate, "atmost", "json"},
    {kAllocate, "atmost", "explain"},
    {kAllocate, "atmost", "witness-json"},
    {kAllocate, "atmost", "witness-dot"},
    {kAllocate, "rcsi", "json"},
    {kAllocate, "rcsi", "explain"},
    {kAllocate, "rcsi", "witness-json"},
    {kAllocate, "rcsi", "witness-dot"},
};

// Flags that mean nothing without the other flag of the pair.
constexpr FlagPair kRequires[] = {
    {kServe, "adapt-interval", "adapt"},
    {kServe, "adapt-budget", "adapt"},
    {kPromote, "default", "target"},
    {kPromote, "concurrency", "validate-runs"},
    {kPromote | kTemplates, "seed", "validate-runs"},
};

// Checks every argument against the table: an unknown, inapplicable,
// repeated or conflicting flag and a missing or malformed value are errors.
StatusOr<Flags> ParseFlags(int command, const std::vector<std::string>& args) {
  const char* name = kCommands[command].name;
  const std::string hint = StrCat(" (mvrob ", name, " --help lists its flags)");
  Flags flags{1u << command, {}};
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool is_flag = arg.starts_with("--");
    const FlagSpec* flag = is_flag ? FindFlag(arg.substr(2)) : nullptr;
    std::string error;
    if (!is_flag) {
      error = StrCat("unexpected argument '", arg, "'");
    } else if (flag == nullptr) {
      error = StrCat("unknown flag ", arg, hint);
    } else if ((flag->commands & flags.command) == 0) {
      error = StrCat(arg, " does not apply to ", name, hint);
    } else if (flags.values.contains(flag->name)) {
      error = StrCat(arg, " is given more than once");
    } else if (flag->kind != FlagKind::kSwitch &&
               (i + 1 == args.size() || args[i + 1].starts_with("--"))) {
      error = StrCat(arg, " needs a value");
    } else if (flag->numeric()) {
      StatusOr<uint64_t> number = ParseNumber(*flag, args[i + 1]);
      if (!number.ok()) error = StrCat(arg, ": ", number.status().message());
    }
    if (!error.empty()) return Status::InvalidArgument(error);
    flags.values[flag->name] =
        flag->kind == FlagKind::kSwitch ? "" : args[++i];
  }
  for (const FlagPair& rule : kConflicts) {
    if ((rule.commands & flags.command) != 0 &&
        flags.values.contains(rule.flag) && flags.values.contains(rule.other)) {
      return Status::InvalidArgument(StrCat("--", rule.flag, " and --",
                                            rule.other,
                                            " cannot be combined on ", name));
    }
  }
  for (const FlagPair& rule : kRequires) {
    if ((rule.commands & flags.command) != 0 &&
        flags.values.contains(rule.flag) &&
        !flags.values.contains(rule.other)) {
      return Status::InvalidArgument(StrCat("--", rule.flag, " needs --",
                                            rule.other, " on ", name));
    }
  }
  if (flags.values.contains("engine-shards") &&
      flags.Int("engine-threads") == 1) {
    return Status::InvalidArgument(
        "--engine-shards needs --engine-threads > 1: the deterministic "
        "engine is not sharded");
  }
  return flags;
}

// Appends `text` word-wrapped at 78 columns, from column `indent` of the
// current line (or one space after it); continuation lines start there too.
void AppendWrapped(std::string& out, std::string_view text, size_t indent) {
  size_t column = out.size() - (out.rfind('\n') + 1);
  std::istringstream words{std::string(text)};
  for (std::string word; words >> word; column += word.size()) {
    const size_t gap = column < indent ? indent - column : 1;
    if (column > indent && column + gap + word.size() > 78) {
      out += "\n" + std::string(indent, ' ');
      column = indent;
    } else {
      out.append(gap, ' ');
      column += gap;
    }
    out += word;
  }
  out += '\n';
}

std::string FlagHelp(const FlagSpec& flag, bool list_commands) {
  std::string out =
      StrCat("  --", flag.name, *flag.value != '\0' ? " " : "", flag.value);
  std::string text = flag.help;
  const uint64_t top = flag.kind == FlagKind::kInt ? kIntMax : kUint64Max;
  if (flag.numeric() && flag.max != top) {
    text += StrCat(", ", flag.min, "..", flag.max);
  } else if (flag.numeric() && flag.min > 0) {
    text += StrCat(", >= ", flag.min);
  }
  if (!flag.def.empty()) text += StrCat(" (default ", flag.def, ")");
  if (list_commands) {
    std::string names;
    for (size_t i = 0; i < std::size(kCommands); ++i) {
      if (flag.commands & (1u << i)) names += StrCat(" ", kCommands[i].name);
    }
    text += StrCat(" [", flag.commands == kGlobal ? "every command"
                                                   : names.substr(1), "]");
  }
  AppendWrapped(out, text, 27);
  return out;
}

// `mvrob help` (command < 0) lists every command and every flag with the
// commands it applies to; `mvrob <command> --help` that command's flags.
std::string Help(int command) {
  std::string out;
  if (command < 0) {
    out = "mvrob — mixed isolation-level robustness & allocation\n\n"
          "usage: mvrob <command> [flags]\n"
          "       mvrob <command> --help   the command's flags\n\ncommands:\n";
    for (const CommandSpec& spec : kCommands) {
      AppendWrapped(out += StrCat("  ", spec.name), spec.summary, 13);
    }
    out += "  version    print build information (git describe, compiler, "
           "sanitizer)\n  help       this text\n\n"
           "flags, with the commands they apply to:\n";
  } else {
    out = StrCat("usage: mvrob ", kCommands[command].name, " [flags]\n\n");
    AppendWrapped(out, kCommands[command].summary, 2);
    out += "\nflags:\n";
  }
  const uint32_t shown = command < 0 ? kGlobal : 1u << command;
  for (const FlagSpec& flag : FlagTable()) {
    if (flag.commands & shown) out += FlagHelp(flag, command < 0);
  }
  return out;
}

// Resolves "@path" arguments to file contents.
StatusOr<std::string> LoadText(const std::string& value) {
  if (!value.starts_with("@")) return value;
  std::ifstream file(value.substr(1));
  if (!file) {
    return Status::NotFound(StrCat("cannot open ", value.substr(1)));
  }
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

StatusOr<TransactionSet> LoadTxns(const Flags& flags) {
  if (flags.Has("workload")) {
    StatusOr<Workload> workload = MakeNamedWorkload(flags.Get("workload"));
    if (!workload.ok()) return workload.status();
    return std::move(workload->txns);
  }
  if (!flags.Has("txns")) {
    return Status::InvalidArgument("--txns or --workload is required");
  }
  StatusOr<std::string> text = LoadText(flags.Get("txns"));
  if (!text.ok()) return text.status();
  return ParseTransactionSet(*text);
}

StatusOr<Allocation> LoadAllocation(const Flags& flags,
                                    const TransactionSet& txns) {
  StatusOr<IsolationLevel> fallback = ParseIsolationLevel(flags.Get("default"));
  if (!fallback.ok()) return fallback.status();
  return ParseAllocation(txns, flags.Get("alloc"), *fallback);
}

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status.ToString() << "\n";
  return 1;
}

CheckOptions LoadCheckOptions(const Flags& flags, MetricsRegistry* metrics) {
  CheckOptions options;
  options.metrics = metrics;
  options.num_threads = flags.Int("threads");
  return options;
}

// --profile-out alone implies the profiler's default rate.
int ProfileHz(const Flags& flags) {
  const int hz = flags.Int("profile-hz");
  return hz == 0 && flags.Has("profile-out") ? ProfilerOptions().hz : hz;
}

// Writes the --witness-json / --witness-dot artifacts that were asked for;
// each renderer runs only when its flag is present.
Status EmitWitness(const Flags& flags,
                   const std::function<std::string()>& json,
                   const std::function<std::string()>& dot, std::ostream& out) {
  if (flags.Has("witness-json")) {
    Status emitted = EmitArtifact(flags.Get("witness-json"), json(), out);
    if (!emitted.ok()) return emitted;
  }
  if (!flags.Has("witness-dot")) return Status::Ok();
  return EmitArtifact(flags.Get("witness-dot"), dot(), out);
}

// The allocate/shell witness: per-transaction obstacle provenance.
Status EmitAllocationWitness(const Flags& flags, const TransactionSet& txns,
                             const AllocationExplanation& explanation,
                             std::ostream& out) {
  return EmitWitness(
      flags, [&] { return AllocationExplanationJson(txns, explanation); },
      [&] { return AllocationExplanationDot(txns, explanation); }, out);
}

// Emits a counterexample chain as a JSON object.
void ChainToJson(const TransactionSet& txns, const CounterexampleChain& chain,
                 JsonWriter& json) {
  json.BeginObject();
  json.Key("split_txn");
  json.String(txns.txn(chain.t1).name());
  json.Key("split_after");
  json.String(txns.FormatOp(chain.b1));
  json.Key("chain");
  json.BeginArray();
  for (TxnId t : chain.ChainTxns()) json.String(txns.txn(t).name());
  json.EndArray();
  json.EndObject();
}

int CmdCheck(const Flags& flags, std::ostream& out, std::ostream& err,
             MetricsRegistry* metrics) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());

  RobustnessResult result =
      CheckRobustness(*txns, *alloc, LoadCheckOptions(flags, metrics));
  Status witness_out = EmitWitness(
      flags, [&] { return RobustnessWitnessJson(*txns, *alloc, result); },
      [&] { return RobustnessWitnessDot(*txns, *alloc, result); }, out);
  if (!witness_out.ok()) return Fail(err, witness_out);

  if (flags.Has("json")) {
    JsonWriter json;
    json.BeginObject();
    json.Key("allocation");
    json.String(alloc->ToString(*txns));
    json.Key("robust");
    json.Bool(result.robust);
    if (!result.robust) {
      json.Key("counterexample");
      ChainToJson(*txns, *result.counterexample, json);
    }
    json.EndObject();
    out << json.str() << "\n";
    return 0;
  }

  out << "workload:\n" << txns->ToString();
  out << "allocation: " << alloc->ToString(*txns) << "\n";
  out << "robust: " << (result.robust ? "yes" : "no") << "\n";
  if (!result.robust) {
    out << "counterexample: " << result.counterexample->ToString(*txns)
        << "\n";
    StatusOr<Schedule> witness =
        BuildSplitSchedule(*txns, *alloc, *result.counterexample);
    if (witness.ok()) {
      out << "witness schedule: " << witness->ToString() << "\n";
    }
  }
  return 0;
}

// Parses --pin / --atmost specs into AllocationBounds.
StatusOr<AllocationBounds> LoadBounds(const Flags& flags,
                                      const TransactionSet& txns) {
  AllocationBounds bounds = AllocationBounds::Free(txns.size());
  if (flags.Has("pin")) {
    // Reuse the allocation parser: unmentioned transactions default to RC
    // and a second parse with SSI default distinguishes them.
    StatusOr<Allocation> low =
        ParseAllocation(txns, flags.Get("pin"), IsolationLevel::kRC);
    if (!low.ok()) return low.status();
    StatusOr<Allocation> high =
        ParseAllocation(txns, flags.Get("pin"), IsolationLevel::kSSI);
    if (!high.ok()) return high.status();
    for (TxnId t = 0; t < txns.size(); ++t) {
      if (low->level(t) == high->level(t)) {
        bounds.Pin(t, low->level(t));  // Mentioned in the spec.
      }
    }
  }
  if (flags.Has("atmost")) {
    StatusOr<Allocation> cap =
        ParseAllocation(txns, flags.Get("atmost"), IsolationLevel::kSSI);
    if (!cap.ok()) return cap.status();
    for (TxnId t = 0; t < txns.size(); ++t) {
      if (cap->level(t) < bounds.max_level[t]) {
        bounds.AtMost(t, cap->level(t));
      }
    }
  }
  return bounds;
}

int CmdAllocate(const Flags& flags, std::ostream& out, std::ostream& err,
                MetricsRegistry* metrics) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  const CheckOptions options = LoadCheckOptions(flags, metrics);

  if (flags.Has("pin") || flags.Has("atmost")) {
    StatusOr<AllocationBounds> bounds = LoadBounds(flags, *txns);
    if (!bounds.ok()) return Fail(err, bounds.status());
    StatusOr<ConstrainedAllocationResult> result =
        ComputeConstrainedAllocation(*txns, *bounds, options);
    if (!result.ok()) return Fail(err, result.status());
    if (!result->feasible) {
      out << "no robust allocation exists within the given bounds\n";
      out << "counterexample at the bounds' top: "
          << result->counterexample->ToString(*txns) << "\n";
      return 0;
    }
    out << "optimal allocation within bounds: "
        << result->allocation->ToString(*txns) << "\n";
    return 0;
  }

  if (flags.Has("rcsi")) {
    RcSiAllocationResult result = ComputeOptimalRcSiAllocation(*txns, options);
    if (!result.allocatable) {
      out << "no robust {RC,SI} allocation exists\n";
      out << "counterexample against A_SI: "
          << result.counterexample->ToString(*txns) << "\n";
      return 0;
    }
    out << "optimal {RC,SI} allocation: "
        << result.allocation->ToString(*txns) << "\n";
    return 0;
  }

  OptimalAllocationResult result = ComputeOptimalAllocation(*txns, options);
  if (flags.Has("witness-json") || flags.Has("witness-dot")) {
    StatusOr<AllocationExplanation> explanation =
        ExplainAllocation(*txns, result.allocation, options);
    if (!explanation.ok()) return Fail(err, explanation.status());
    Status witness_out = EmitAllocationWitness(flags, *txns, *explanation, out);
    if (!witness_out.ok()) return Fail(err, witness_out);
  }
  if (flags.Has("json")) {
    JsonWriter json;
    json.BeginObject();
    json.Key("levels");
    json.BeginObject();
    for (TxnId t = 0; t < txns->size(); ++t) {
      json.Key(txns->txn(t).name());
      json.String(IsolationLevelToString(result.allocation.level(t)));
    }
    json.EndObject();
    json.Key("robustness_checks");
    json.Uint(result.robustness_checks);
    json.EndObject();
    out << json.str() << "\n";
    return 0;
  }
  out << "optimal allocation: " << result.allocation.ToString(*txns) << "\n";
  out << "levels: RC=" << result.allocation.CountAt(IsolationLevel::kRC)
      << " SI=" << result.allocation.CountAt(IsolationLevel::kSI)
      << " SSI=" << result.allocation.CountAt(IsolationLevel::kSSI) << "\n";
  if (flags.Has("explain")) {
    StatusOr<AllocationExplanation> explanation =
        ExplainAllocation(*txns, result.allocation, options);
    if (!explanation.ok()) return Fail(err, explanation.status());
    out << explanation->ToString(*txns);
  }
  return 0;
}

int CmdExplore(const Flags& flags, std::ostream& out, std::ostream& err) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  if (!flags.Has("schedule")) {
    return Fail(err, Status::InvalidArgument("--schedule is required"));
  }
  StatusOr<std::vector<OpRef>> order =
      ParseScheduleOrder(*txns, flags.Get("schedule"));
  if (!order.ok()) return Fail(err, order.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());
  StatusOr<Schedule> schedule = MaterializeSchedule(&*txns, *order, *alloc);
  if (!schedule.ok()) return Fail(err, schedule.status());

  out << "schedule: " << schedule->ToString(/*with_versions=*/true) << "\n";
  if (flags.Has("timeline")) out << ScheduleTimeline(*schedule);
  SerializationGraph graph = SerializationGraph::Build(*schedule);
  for (const Dependency& edge : graph.edges()) {
    out << "  " << FormatDependency(*txns, edge) << "\n";
  }
  out << "conflict serializable: " << (graph.IsAcyclic() ? "yes" : "no")
      << "\n";
  for (const AnomalyReport& anomaly : FindAnomalies(*schedule)) {
    out << "anomaly: " << anomaly.ToString(*txns) << "\n";
  }
  AllowedCheckResult allowed = CheckAllowedUnder(*schedule, *alloc);
  out << "allowed under " << alloc->ToString(*txns) << ": "
      << (allowed.allowed ? "yes" : "no") << "\n";
  for (const std::string& violation : allowed.violations) {
    out << "  - " << violation << "\n";
  }
  if (flags.Has("dot")) out << SerializationGraphToDot(*txns, graph);
  return 0;
}

int CmdCensus(const Flags& flags, std::ostream& out, std::ostream& err) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());
  StatusOr<ScheduleCensus> census =
      ComputeScheduleCensus(*txns, *alloc, flags.Uint64("max"));
  if (!census.ok()) return Fail(err, census.status());
  out << "interleavings: " << census->interleavings << "\n";
  out << "allowed:       " << census->allowed << "\n";
  out << "serializable:  " << census->serializable << "\n";
  out << "anomalous:     " << census->anomalous << "\n";
  return 0;
}

int CmdTemplates(const Flags& flags, std::ostream& out, std::ostream& err) {
  if (!flags.Has("templates")) {
    return Fail(err, Status::InvalidArgument("--templates is required"));
  }
  StatusOr<std::string> text = LoadText(flags.Get("templates"));
  if (!text.ok()) return Fail(err, text.status());
  StatusOr<TemplateSet> parsed = ParseTemplateSet(*text);
  if (!parsed.ok()) return Fail(err, parsed.status());
  TemplateSet set =
      flags.Has("no-constraints") ? parsed->WithoutConstraints() : *parsed;

  InstantiationOptions inst;
  inst.copies_per_assignment = flags.Int("copies");
  inst.max_instances = flags.Int("max-instances");

  TemplateWitnessInputs witness;
  std::optional<TemplateAllocation> levels;

  std::optional<RcSiTemplateAllocationResult> rcsi;
  if (flags.Has("rcsi")) {
    StatusOr<RcSiTemplateAllocationResult> result =
        ComputeOptimalRcSiTemplateAllocation(set, inst);
    if (!result.ok()) return Fail(err, result.status());
    rcsi = *std::move(result);
    if (!rcsi->allocatable) {
      out << "NOT robustly {RC, SI}-allocatable at template granularity.\n"
          << "witness: "
          << rcsi->counterexample->ToString(rcsi->instantiation.txns);
      if (!rcsi->world.empty()) out << " [world " << rcsi->world << "]";
      out << "\n";
    } else {
      levels = *rcsi->levels;
      out << "optimal {RC, SI} per-program allocation: "
          << FormatTemplateAllocation(set, *levels) << "\n";
    }
  } else {
    StatusOr<TemplateAllocationResult> result =
        ComputeOptimalTemplateAllocation(set, inst);
    if (!result.ok()) return Fail(err, result.status());
    levels = result->levels;
    witness.worlds = result->worlds;
    witness.robustness_checks = result->robustness_checks;
    out << "optimal per-program allocation: "
        << FormatTemplateAllocation(set, *levels) << "\n";
    if (result->worlds > 1) {
      out << "function worlds checked: " << result->worlds
          << " (robust in every interpretation of the declared "
             "functions)\n";
    }
  }

  // The refined potential-conflict relation, with attribution: which
  // constraint or predicate discharged each template-op pair relative to
  // the distinct-parameter baseline.
  StatusOr<TemplateConflictAnalysis> conflicts =
      AnalyzeTemplateConflicts(set, inst);
  if (conflicts.ok()) {
    out << "template-pair conflicts: " << conflicts->conflicting_pairs
        << " (distinct-parameter baseline: "
        << conflicts->baseline_conflicting_pairs << ")\n";
    if (flags.Has("explain")) {
      for (const TemplateOpPairConflict& pair : conflicts->op_pairs) {
        if (pair.conflicts || !pair.baseline_conflicts) continue;
        out << "  " << set.tmpl(pair.tmpl_a).name() << ".op" << pair.op_a
            << " x " << set.tmpl(pair.tmpl_b).name() << ".op" << pair.op_b
            << " (" << pair.kind << "): discharged by "
            << pair.discharged_by << "\n";
      }
    }
  }

  std::optional<TemplateExplanation> explanation;
  if (flags.Has("explain") && levels.has_value()) {
    StatusOr<TemplateExplanation> explained =
        ExplainTemplateAllocation(set, *levels, inst);
    if (!explained.ok()) return Fail(err, explained.status());
    explanation = *std::move(explained);
    out << "\nwhy no template can run lower:\n"
        << explanation->ToString(set);
  }

  std::optional<TemplatePromotionPlan> promotion;
  if (flags.Has("promote")) {
    StatusOr<TemplatePromotionPlan> plan =
        OptimizeTemplatePromotions(set, PromoteOptions{}, inst);
    if (!plan.ok()) return Fail(err, plan.status());
    promotion = *std::move(plan);
    if (promotion->improved) {
      out << "\ntemplate promotions (SELECT ... FOR UPDATE): "
          << FormatTemplatePromotions(set, promotion->promotions) << "\n"
          << "  before: "
          << FormatTemplateAllocation(set, promotion->before_levels)
          << " (weighted " << promotion->before_cost.weighted << ")\n"
          << "  after:  "
          << FormatTemplateAllocation(set, promotion->after_levels)
          << " (weighted " << promotion->after_cost.weighted << ")\n";
    } else {
      out << "\nno template promotion lowers the allocation cost\n";
    }
  }

  // Engine certification: every world's canonical instantiation is run on
  // the MVCC engine under the computed per-template allocation and
  // round-tripped through the formal checker.
  uint64_t disagreements = 0;
  const int validate_runs = flags.Int("validate-runs");
  if (validate_runs > 0 && levels.has_value()) {
    StatusOr<std::vector<WorldInstantiation>> worlds =
        InstantiateAllWorlds(set, inst);
    if (!worlds.ok()) return Fail(err, worlds.status());
    for (const WorldInstantiation& world : *worlds) {
      std::vector<IsolationLevel> instance_levels;
      for (int tmpl : world.instantiation.template_of_txn) {
        instance_levels.push_back((*levels)[static_cast<size_t>(tmpl)]);
      }
      RoundTripOptions rt;
      rt.runs = validate_runs;
      rt.seed = flags.Uint64("seed");
      StatusOr<RoundTripReport> report = ValidateEngineRuns(
          world.instantiation.txns, Allocation(std::move(instance_levels)),
          rt);
      if (!report.ok()) return Fail(err, report.status());
      disagreements += report->disagreements;
      out << "validation: runs=" << report->runs
          << " certified=" << report->certified
          << " disagreements=" << report->disagreements
          << " anomalous=" << report->anomalous_runs;
      if (!world.instantiation.world.empty()) {
        out << " [world " << world.instantiation.world << "]";
      }
      out << "\n";
    }
  }

  if (flags.Has("witness-json")) {
    if (levels.has_value()) witness.levels = &*levels;
    if (conflicts.ok()) witness.conflicts = &*conflicts;
    if (explanation.has_value()) witness.explanation = &*explanation;
    if (promotion.has_value()) witness.promotion = &*promotion;
    Status emitted = EmitArtifact(flags.Get("witness-json"),
                                  TemplateWitnessJson(set, witness), out);
    if (!emitted.ok()) return Fail(err, emitted);
  }
  if (rcsi.has_value() && !rcsi->allocatable) return 1;
  if (disagreements != 0) return 2;
  return 0;
}

int CmdReport(const Flags& flags, std::ostream& out, std::ostream& err,
              MetricsRegistry* metrics) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  const CheckOptions options = LoadCheckOptions(flags, metrics);

  out << "# Workload analysis\n\n";
  out << "## Transactions\n\n```\n" << txns->ToString() << "```\n\n";
  out << ComputeWorkloadStats(*txns).ToString() << "\n\n";

  out << "## Robustness against homogeneous allocations\n\n";
  out << "| allocation | robust |\n|---|---|\n";
  RobustnessResult rc = CheckRobustnessRC(*txns);
  RobustnessResult si = CheckRobustnessSI(*txns);
  out << "| A_RC  | " << (rc.robust ? "yes" : "no") << " |\n";
  out << "| A_SI  | " << (si.robust ? "yes" : "no") << " |\n";
  out << "| A_SSI | yes |\n\n";

  OptimalAllocationResult optimal = ComputeOptimalAllocation(*txns, options);
  out << "## Optimal robust allocation\n\n";
  out << "```\n" << optimal.allocation.ToString(*txns) << "\n```\n\n";
  out << "RC=" << optimal.allocation.CountAt(IsolationLevel::kRC)
      << " SI=" << optimal.allocation.CountAt(IsolationLevel::kSI)
      << " SSI=" << optimal.allocation.CountAt(IsolationLevel::kSSI)
      << " (" << optimal.robustness_checks << " robustness checks)\n\n";

  StatusOr<AllocationExplanation> explanation =
      ExplainAllocation(*txns, optimal.allocation, options);
  if (explanation.ok()) {
    out << "## Why no transaction can run lower\n\n```\n"
        << explanation->ToString(*txns) << "```\n\n";
  }

  std::vector<CounterexampleChain> spots = FindAllCounterexamples(
      *txns, Allocation::AllSI(txns->size()), /*limit=*/8, options);
  if (!spots.empty()) {
    out << "## Trouble spots under A_SI\n\n";
    for (const CounterexampleChain& chain : spots) {
      out << "- " << chain.ToString(*txns) << "\n";
    }
    out << "\n";
  }

  RcSiAllocationResult rcsi = ComputeOptimalRcSiAllocation(*txns);
  out << "## The {RC, SI} setting (Oracle)\n\n";
  if (rcsi.allocatable) {
    out << "Robustly allocatable: `" << rcsi.allocation->ToString(*txns)
        << "`\n";
  } else {
    out << "NOT robustly allocatable — no assignment of RC/SI avoids "
           "anomalies.\nWitness: "
        << rcsi.counterexample->ToString(*txns) << "\n";
  }

  // A census when enumeration is cheap.
  StatusOr<ScheduleCensus> census =
      ComputeScheduleCensus(*txns, Allocation::AllSI(txns->size()),
                            /*max_interleavings=*/200'000);
  if (census.ok()) {
    out << "\n## Interleaving census under A_SI\n\n";
    out << census->allowed << " of " << census->interleavings
        << " interleavings allowed; " << census->anomalous
        << " anomalous.\n";
  }
  return 0;
}

int CmdSimulate(const Flags& flags, std::ostream& out, std::ostream& err,
                MetricsRegistry* metrics, TxnTracer* tracer) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());
  const int runs = flags.Has("runs") ? flags.Int("runs") : 20;
  if (runs == 0) {
    return Fail(err, Status::InvalidArgument("--runs: simulate needs >= 1"));
  }
  const int engine_threads = flags.Int("engine-threads");
  const bool concurrent = engine_threads > 1;

  out << "simulating " << runs << " executions of " << txns->size()
      << " transactions under " << alloc->ToString(*txns);
  if (concurrent) out << " (" << engine_threads << " engine threads)";
  out << "\n";
  // --record-schedule / --record-trace export the *last* run; the recorder
  // is cleared between runs so the files cover one complete execution.
  std::optional<ScheduleRecorder> recorder;
  if (flags.Has("record-schedule") || flags.Has("record-trace")) {
    recorder.emplace();
  }
  // One observer list serves either engine.
  std::vector<EngineObserver*> observers;
  if (recorder.has_value()) observers.push_back(&*recorder);
  if (tracer != nullptr) observers.push_back(tracer);
  uint64_t commits = 0;
  uint64_t fuw = 0;
  uint64_t ssi = 0;
  uint64_t serializable = 0;
  std::map<std::string, int> anomaly_counts;
  for (int r = 0; r < runs; ++r) {
    if (recorder.has_value()) recorder->Clear();
    RandomRunOptions options;
    options.concurrency = flags.Int("concurrency");
    options.seed = flags.Uint64("seed") + static_cast<uint64_t>(r);
    options.metrics = metrics;
    options.tracer = tracer;
    // Engines live in optionals so one loop body serves both paths.
    std::optional<Engine> engine;
    std::optional<ConcurrentEngine> concurrent_engine;
    DriverReport report;
    if (concurrent) {
      ConcurrentEngineOptions engine_options;
      engine_options.num_shards = flags.Uint64("engine-shards");
      engine_options.metrics = metrics;
      engine_options.observers = observers;
      concurrent_engine.emplace(txns->num_objects(),
                                static_cast<size_t>(engine_threads),
                                engine_options);
      options.engine_threads = engine_threads;
      report = RunConcurrent(*concurrent_engine, *txns, *alloc, options);
    } else {
      EngineOptions engine_options;
      engine_options.metrics = metrics;
      engine_options.observers = observers;
      engine.emplace(txns->num_objects(), engine_options);
      report = RunRandom(*engine, *txns, *alloc, options);
    }
    const EngineStats stats =
        concurrent ? concurrent_engine->stats() : engine->stats();
    commits += report.committed;
    fuw += stats.aborts_write_conflict;
    ssi += stats.aborts_ssi;
    StatusOr<ExportedRun> run =
        concurrent ? ExportCommittedSessions(
                         concurrent_engine->SessionSnapshot(), *txns)
                   : ExportCommittedRun(*engine, *txns);
    if (!run.ok()) continue;
    StatusOr<Schedule> schedule = run->BuildSchedule();
    if (!schedule.ok()) continue;
    std::vector<AnomalyReport> anomalies = FindAnomalies(*schedule);
    if (anomalies.empty()) {
      ++serializable;
    } else {
      for (const AnomalyReport& anomaly : anomalies) {
        ++anomaly_counts[AnomalyKindToString(anomaly.kind)];
      }
    }
  }
  out << "commits: " << commits << ", first-updater aborts: " << fuw
      << ", SSI aborts: " << ssi << "\n";
  out << "serializable runs: " << serializable << "/" << runs << "\n";
  for (const auto& [kind, count] : anomaly_counts) {
    out << "anomaly '" << kind << "': " << count << " occurrence(s)\n";
  }
  bool robust = CheckRobustness(*txns, *alloc).robust;
  out << "(Algorithm 1 verdict for this allocation: "
      << (robust ? "robust - anomalies are impossible"
                 : "NOT robust - anomalies are possible")
      << ")\n";
  if (recorder.has_value()) {
    if (flags.Has("record-schedule")) {
      Status written = EmitArtifact(flags.Get("record-schedule"),
                                    recorder->ToText(*txns), out);
      if (!written.ok()) return Fail(err, written);
    }
    if (flags.Has("record-trace")) {
      Status written = EmitArtifact(flags.Get("record-trace"),
                                    recorder->ToChromeTrace(*txns), out);
      if (!written.ok()) return Fail(err, written);
    }
    if (recorder->dropped() > 0) {
      GlobalLogger().Log(LogLevel::kWarn, "cli.simulate",
                         "recorder dropped events",
                         {LogField("dropped", recorder->dropped()),
                          LogField("capacity", recorder->capacity())});
    }
  }
  return 0;
}

// Records randomized engine runs and feeds every recording back through
// the formal checker (mvcc/roundtrip.h). Exit code 2 on any
// theory/execution disagreement.
int CmdValidate(const Flags& flags, std::ostream& out, std::ostream& err,
                MetricsRegistry* metrics) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());

  RoundTripOptions options;
  options.runs = flags.Has("runs") ? flags.Int("runs") : 200;
  options.concurrency = flags.Int("concurrency");
  options.seed = flags.Uint64("seed");
  options.engine_threads = flags.Int("engine-threads");
  options.engine_shards = flags.Uint64("engine-shards");
  options.check = LoadCheckOptions(flags, metrics);
  options.metrics = metrics;
  StatusOr<RoundTripReport> report =
      ValidateEngineRuns(*txns, *alloc, options);
  if (!report.ok()) return Fail(err, report.status());
  out << report->ToString();
  return report->disagreements == 0 ? 0 : 2;
}

// Interactive loop: one command per line on `in`.
//   add <Name>: R[x] W[y]   add a transaction and reallocate
//   remove <Name>           drop a transaction
//   show                    print workload + current optimal allocation
//   quit
int CmdShell(const Flags& flags, std::istream& in, std::ostream& out,
             std::ostream& err, MetricsRegistry* metrics) {
  IncrementalAllocator allocator;
  CheckOptions shell_options;
  shell_options.metrics = metrics;
  allocator.set_check_options(shell_options);
  // With --witness-json / --witness-dot, the witness files are rewritten
  // after every successful add/remove, tracking the current optimum's
  // provenance across the interactive session.
  auto refresh_witness = [&]() {
    if (!flags.Has("witness-json") && !flags.Has("witness-dot")) return;
    if (allocator.txns().empty()) return;
    StatusOr<AllocationExplanation> explanation =
        ExplainAllocation(allocator.txns(), allocator.allocation(),
                          allocator.check_options());
    if (!explanation.ok()) {
      err << "error: " << explanation.status().ToString() << "\n";
      return;
    }
    Status emitted =
        EmitAllocationWitness(flags, allocator.txns(), *explanation, out);
    if (!emitted.ok()) err << "error: " << emitted.ToString() << "\n";
  };
  out << "mvrob shell - 'add <Name>: R[x] W[y]', 'remove <Name>', 'show', "
         "'quit'\n";
  std::string line;
  while (out << "> " << std::flush, std::getline(in, line)) {
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty()) continue;
    if (trimmed == "quit" || trimmed == "exit") break;
    if (trimmed == "show") {
      out << allocator.txns().ToString();
      if (!allocator.txns().empty()) {
        out << "optimal: "
            << allocator.allocation().ToString(allocator.txns()) << "\n";
      }
      continue;
    }
    if (trimmed.starts_with("remove ")) {
      std::string name(StripWhitespace(trimmed.substr(7)));
      TxnId txn = allocator.txns().FindTransaction(name);
      if (txn == kInvalidTxnId) {
        err << "error: no transaction '" << name << "'\n";
        continue;
      }
      Status removed = allocator.RemoveTransaction(txn);
      if (!removed.ok()) {
        err << "error: " << removed.ToString() << "\n";
        continue;
      }
      out << "removed " << name << "\n";
      if (!allocator.txns().empty()) {
        out << "optimal: "
            << allocator.allocation().ToString(allocator.txns()) << "\n";
      }
      refresh_witness();
      continue;
    }
    if (trimmed.starts_with("add ")) {
      // Parse "<Name>: ops" by reusing the workload DSL on a fresh set,
      // then copy the transaction over with interned objects.
      StatusOr<TransactionSet> parsed =
          ParseTransactionSet(trimmed.substr(4));
      if (!parsed.ok() || parsed->size() != 1) {
        err << "error: expected 'add Name: R[x] W[y] ...'\n";
        continue;
      }
      const Transaction& txn = parsed->txn(0);
      std::vector<Operation> ops;
      for (int i = 0; i + 1 < txn.num_ops(); ++i) {
        Operation op = txn.op(i);
        op.object = allocator.InternObject(parsed->ObjectName(op.object));
        ops.push_back(op);
      }
      StatusOr<TxnId> added =
          allocator.AddTransaction(txn.name(), std::move(ops));
      if (!added.ok()) {
        err << "error: " << added.status().ToString() << "\n";
        continue;
      }
      out << "added " << txn.name() << "; optimal: "
          << allocator.allocation().ToString(allocator.txns()) << "\n";
      refresh_witness();
      continue;
    }
    err << "error: unknown shell command '" << trimmed << "'\n";
  }
  return 0;
}

// Long-running telemetry server; see cli/serve.h for the subsystem.
int CmdServe(const Flags& flags, std::ostream& out, std::ostream& err) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());

  ServeParams params;
  params.txns = std::move(*txns);
  params.alloc = std::move(*alloc);
  params.host = flags.Get("host");
  params.port = flags.Int("port");
  params.port_file = flags.Get("port-file");
  params.witness_interval_s = flags.Int("witness-interval");
  params.duration_s = flags.Int("duration");
  params.window_s = static_cast<uint32_t>(flags.Int("window"));
  params.concurrency = flags.Int("concurrency");
  params.seed = flags.Uint64("seed");
  params.threads = flags.Int("threads");
  params.engine_threads = flags.Int("engine-threads");
  params.engine_shards = flags.Uint64("engine-shards");
  params.adapt = flags.Has("adapt");
  params.adapt_interval_s = flags.Int("adapt-interval");
  params.adapt_budget = flags.Int("adapt-budget");
  params.trace_sample = flags.Uint64("trace-sample");
  // serve owns its export files and profiler: it writes the files once, on
  // clean shutdown, with the sampled txn spans merged into the trace.
  params.stats_json = flags.Get("stats-json");
  params.trace_out = flags.Get("trace-out");
  params.profile_hz = ProfileHz(flags);
  params.profile_out = flags.Get("profile-out");
  return RunServe(std::move(params), out, err);
}

int CmdCrossCheck(const Flags& flags, std::ostream& out, std::ostream& err) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  StatusOr<Allocation> alloc = LoadAllocation(flags, *txns);
  if (!alloc.ok()) return Fail(err, alloc.status());

  RobustnessResult algorithm = CheckRobustness(*txns, *alloc);
  out << "Algorithm 1 (PTIME):       "
      << (algorithm.robust ? "robust" : "not robust") << "\n";

  std::optional<CounterexampleChain> split =
      EnumerateSplitSchedules(*txns, *alloc);
  out << "Definition 3.1 enumeration: "
      << (split.has_value() ? "counterexample found" : "no split schedule")
      << "\n";

  StatusOr<BruteForceResult> brute = BruteForceRobustness(*txns, *alloc);
  if (brute.ok()) {
    out << "Brute-force oracle:        "
        << (brute->robust ? "robust" : "not robust") << " ("
        << brute->interleavings_checked << " interleavings)\n";
  } else {
    out << "Brute-force oracle:        skipped (" << brute.status().message()
        << ")\n";
  }

  bool agree = algorithm.robust == !split.has_value() &&
               (!brute.ok() || brute->robust == algorithm.robust);
  if (!algorithm.robust) {
    Status verified =
        VerifyCounterexample(*txns, *alloc, *algorithm.counterexample);
    out << "Witness verification:      "
        << (verified.ok() ? "allowed & non-serializable" : "FAILED") << "\n";
    agree = agree && verified.ok();
  }
  out << (agree ? "ALL CHECKS AGREE" : "DISAGREEMENT — please report a bug")
      << "\n";
  return agree ? 0 : 2;
}

// Witness-guided read promotion (docs/promotion.md): search for a small
// set of SELECT ... FOR UPDATE promotions under which Algorithm 2 returns
// a strictly cheaper allocation — or, with --target, under which a fixed
// allocation becomes robust.
int CmdPromote(const Flags& flags, std::ostream& out, std::ostream& err,
               MetricsRegistry* metrics) {
  StatusOr<TransactionSet> txns = LoadTxns(flags);
  if (!txns.ok()) return Fail(err, txns.status());
  PromoteOptions options;
  options.check = LoadCheckOptions(flags, metrics);
  options.max_promotions = flags.Int("budget");
  options.weight_si = flags.Int("weight-si");
  options.weight_ssi = flags.Int("weight-ssi");

  StatusOr<PromotionPlan> plan = [&]() -> StatusOr<PromotionPlan> {
    if (!flags.Has("target")) return OptimizePromotions(*txns, options);
    // Target mode: "T1=RC T2=SI" with --default (RC here) for the rest,
    // or a bare level name for a uniform target.
    const std::string spec = flags.Get("target");
    StatusOr<IsolationLevel> uniform = ParseIsolationLevel(spec);
    if (uniform.ok()) {
      return PromoteForTarget(*txns, Allocation(txns->size(), *uniform),
                              options);
    }
    StatusOr<IsolationLevel> fallback = ParseIsolationLevel(
        flags.Has("default") ? flags.Get("default") : "RC");
    if (!fallback.ok()) return fallback.status();
    StatusOr<Allocation> target = ParseAllocation(*txns, spec, *fallback);
    if (!target.ok()) return target.status();
    return PromoteForTarget(*txns, *target, options);
  }();
  if (!plan.ok()) return Fail(err, plan.status());

  // Optional certification, run before emission so the JSON document can
  // carry the verdict: the promoted workload must round-trip through the
  // engine + formal machinery without a single disagreement, and the
  // promoted allocation being robust means zero anomalous runs.
  std::optional<RoundTripReport> validation;
  std::string validation_json;
  if (flags.Int("validate-runs") > 0) {
    RoundTripOptions rt;
    rt.runs = flags.Int("validate-runs");
    rt.concurrency = flags.Int("concurrency");
    rt.seed = flags.Uint64("seed");
    rt.check = options.check;
    rt.metrics = metrics;
    StatusOr<RoundTripReport> report =
        ValidateEngineRuns(plan->promoted, plan->after_allocation, rt);
    if (!report.ok()) return Fail(err, report.status());
    validation = *std::move(report);
    JsonWriter json;
    json.BeginObject();
    json.Key("runs");
    json.Uint(validation->runs);
    json.Key("certified");
    json.Uint(validation->certified);
    json.Key("disagreements");
    json.Uint(validation->disagreements);
    json.Key("serializable_runs");
    json.Uint(validation->serializable_runs);
    json.Key("anomalous_runs");
    json.Uint(validation->anomalous_runs);
    json.Key("skipped_unexportable");
    json.Uint(validation->skipped_unexportable);
    json.Key("allocation_robust");
    json.Bool(validation->allocation_robust);
    json.EndObject();
    validation_json = json.str();
  }

  if (flags.Has("json")) {
    out << PromotionPlanJson(*txns, *plan, options, validation_json) << "\n";
  } else {
    out << PromotionPlanToString(*txns, *plan);
    if (validation.has_value()) {
      out << "\nvalidation of the promoted workload under the after "
             "allocation:\n"
          << validation->ToString();
    }
  }
  if (flags.Has("promotion-json")) {
    Status emitted = EmitArtifact(
        flags.Get("promotion-json"),
        PromotionPlanJson(*txns, *plan, options, validation_json), out);
    if (!emitted.ok()) return Fail(err, emitted);
  }
  if (validation.has_value() && validation->disagreements != 0) return 2;
  return 0;
}

int Dispatch(const Flags& flags, std::istream& in, std::ostream& out,
             std::ostream& err, MetricsRegistry* metrics, TxnTracer* tracer) {
  switch (flags.command) {
    case kCheck: return CmdCheck(flags, out, err, metrics);
    case kAllocate: return CmdAllocate(flags, out, err, metrics);
    case kExplore: return CmdExplore(flags, out, err);
    case kCensus: return CmdCensus(flags, out, err);
    case kTemplates: return CmdTemplates(flags, out, err);
    case kReport: return CmdReport(flags, out, err, metrics);
    case kSimulate: return CmdSimulate(flags, out, err, metrics, tracer);
    case kValidate: return CmdValidate(flags, out, err, metrics);
    case kCrossCheck: return CmdCrossCheck(flags, out, err);
    case kShell: return CmdShell(flags, in, out, err, metrics);
    case kPromote: return CmdPromote(flags, out, err, metrics);
    case kServe: return CmdServe(flags, out, err);
  }
  return 1;  // Not reached: ParseFlags builds Flags for kCommands only.
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  return RunCli(args, std::cin, out, err);
}

int RunCli(const std::vector<std::string>& args, std::istream& in,
           std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << Help(-1);
    return args.empty() ? 1 : 0;
  }
  if (args[0] == "version" || args[0] == "--version") {
    out << BuildInfoText();
    return 0;
  }
  const auto* spec = std::ranges::find(kCommands, args[0], &CommandSpec::name);
  if (spec == std::end(kCommands)) {
    err << "error: unknown command '" << args[0] << "'\n" << Help(-1);
    return 1;
  }
  const int command = static_cast<int>(spec - kCommands);
  if (std::ranges::find(args, "--help") != args.end()) {
    out << Help(command);
    return 0;
  }
  // Register the invoking thread for the profiler/watchdog/crash stack
  // machinery and arm the crash flight recorder (mvrob.crash.<pid>.txt).
  ProfiledThreadScope main_scope("main");
  InstallCrashRecorder(CrashRecorderOptions{});
  StatusOr<Flags> flags = ParseFlags(command, args);
  if (!flags.ok()) return Fail(err, flags.status());

  // --log-level overrides MVROB_LOG_LEVEL for this invocation.
  if (flags->Has("log-level")) {
    StatusOr<LogLevel> level = ParseLogLevel(flags->Get("log-level"));
    if (!level.ok()) {
      return Fail(err, Status::InvalidArgument(StrCat(
                           "--log-level: ", level.status().message())));
    }
    GlobalLogger().set_min_level(*level);
  }

  // --stats-json / --trace-out turn on metrics collection for the whole
  // command (without them every instrumentation site is a null sink).
  // serve owns its registry, export files and profiler (CmdServe).
  const bool serve = flags->command == kServe;
  std::optional<MetricsRegistry> registry;
  MetricsRegistry* metrics = nullptr;
  if (!serve && (flags->Has("stats-json") || flags->Has("trace-out"))) {
    registry.emplace();
    metrics = &*registry;
  }

  // --trace-sample attaches a txn tracer to the simulate engines; serve
  // builds its own from ServeParams::trace_sample.
  std::optional<TxnTracer> tracer;
  if (flags->command == kSimulate && flags->Has("trace-sample")) {
    TxnTracerOptions tracer_options;
    tracer_options.sample_every_n = flags->Uint64("trace-sample");
    tracer_options.metrics = metrics;
    tracer.emplace(tracer_options);
  }
  TxnTracer* tracer_ptr = tracer.has_value() ? &*tracer : nullptr;

  // --metrics-interval rewrites the export files on a cadence while the
  // command runs (e.g. a long report), so progress can be tailed.
  std::optional<PeriodicMetricsExporter> exporter;
  if (flags->Has("metrics-interval")) {
    if (metrics == nullptr) {
      return Fail(err, Status::InvalidArgument(
                           "--metrics-interval requires --stats-json or "
                           "--trace-out (and is not supported with "
                           "serve, which exports on shutdown)"));
    }
    exporter.emplace(*registry, flags->Get("stats-json"),
                     flags->Get("trace-out"),
                     std::chrono::seconds(flags->Int("metrics-interval")));
  }

  // --profile-hz / --profile-out: sample the whole command.
  const std::string& profile_out = flags->Get("profile-out");
  const bool profiling = !serve && ProfileHz(*flags) > 0;
  if (profiling) {
    ProfilerOptions profile_options;
    profile_options.hz = ProfileHz(*flags);
    profile_options.metrics = metrics;
    Status started = Profiler::Start(profile_options);
    if (!started.ok()) return Fail(err, started);
  }

  int code;
  {
    // Top-level span covering the entire command.
    PhaseTimer timer(metrics, StrCat("cli.", args[0]));
    code = Dispatch(*flags, in, out, err, metrics, tracer_ptr);
  }
  if (profiling) {
    Profiler::Stop();
    if (!profile_out.empty()) {
      Status written = WriteTextFile(
          profile_out, Profiler::RenderFolded(Profiler::CountsSnapshot()));
      if (!written.ok()) return Fail(err, written);
    }
  }
  exporter.reset();  // Stop periodic writes before the final snapshot.
  if (registry.has_value()) {
    Status written =
        ExportMetricsFiles(*registry, flags->Get("stats-json"),
                           flags->Get("trace-out"), tracer_ptr);
    if (!written.ok()) return Fail(err, written);
  }
  return code;
}

}  // namespace mvrob
