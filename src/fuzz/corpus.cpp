#include "fuzz/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "fuzz/mutate.h"
#include "obs/json.h"
#include "runtime/backends/registry.h"
#include "util/check.h"

namespace pmc::fuzz {

using explore::GenOp;
using explore::GenProgram;
using explore::ProgramShape;

namespace {

const char* kind_name(GenOp::Kind k) {
  switch (k) {
    case GenOp::Kind::kUpdate: return "update";
    case GenOp::Kind::kReadOnly: return "ro";
    case GenOp::Kind::kNested: return "nested";
    case GenOp::Kind::kCompute: return "compute";
    case GenOp::Kind::kFence: return "fence";
    case GenOp::Kind::kBarrier: return "barrier";
  }
  return "?";
}

void append_op_json(std::string& s, const GenOp& op) {
  s += "{\"kind\":\"";
  s += kind_name(op.kind);
  s += '"';
  switch (op.kind) {
    case GenOp::Kind::kUpdate:
      s += ",\"obj\":" + std::to_string(op.obj);
      s += ",\"arg\":" + std::to_string(op.arg);
      if (op.flush) {
        s += ",\"flush\":true,\"arg2\":" + std::to_string(op.arg2);
      }
      break;
    case GenOp::Kind::kReadOnly:
      s += ",\"obj\":" + std::to_string(op.obj);
      break;
    case GenOp::Kind::kNested:
      s += ",\"obj\":" + std::to_string(op.obj);
      s += ",\"obj2\":" + std::to_string(op.obj2);
      s += ",\"arg\":" + std::to_string(op.arg);
      break;
    case GenOp::Kind::kCompute:
      s += ",\"arg\":" + std::to_string(op.arg);
      break;
    case GenOp::Kind::kFence:
    case GenOp::Kind::kBarrier:
      break;
  }
  s += '}';
}

GenOp op_from_json(const JsonValue& v, const std::string& origin,
                   const std::string& field) {
  v.require_object(origin, field);
  const std::string& kind =
      v.get("kind", origin, field + ".kind").as_string(origin, field + ".kind");
  GenOp op;
  const auto obj_of = [&](const char* key) {
    return static_cast<int>(
        v.get(key, origin, field + "." + key).as_int(origin, field + "." + key));
  };
  const auto arg_of = [&](const char* key) {
    return static_cast<uint32_t>(v.get(key, origin, field + "." + key)
                                     .as_u64(origin, field + "." + key));
  };
  if (kind == "update") {
    op.kind = GenOp::Kind::kUpdate;
    op.obj = obj_of("obj");
    op.arg = arg_of("arg");
    if (const JsonValue* flush = v.find("flush")) {
      op.flush = flush->as_bool(origin, field + ".flush");
      if (op.flush) op.arg2 = arg_of("arg2");
    }
  } else if (kind == "ro") {
    op.kind = GenOp::Kind::kReadOnly;
    op.obj = obj_of("obj");
  } else if (kind == "nested") {
    op.kind = GenOp::Kind::kNested;
    op.obj = obj_of("obj");
    op.obj2 = obj_of("obj2");
    op.arg = arg_of("arg");
  } else if (kind == "compute") {
    op.kind = GenOp::Kind::kCompute;
    op.arg = arg_of("arg");
  } else if (kind == "fence") {
    op.kind = GenOp::Kind::kFence;
  } else if (kind == "barrier") {
    op.kind = GenOp::Kind::kBarrier;
  } else {
    PMC_CHECK_MSG(false, origin << ":" << v.line << ": field \"" << field
                                << ".kind\" names unknown op kind \"" << kind
                                << "\"");
  }
  return op;
}

int shape_int(const JsonValue& shape, const char* key,
              const std::string& origin) {
  const std::string field = std::string("program.shape.") + key;
  return static_cast<int>(
      shape.get(key, origin, field).as_int(origin, field));
}

void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PMC_CHECK_MSG(f != nullptr, "cannot open " << path << " for writing");
  const size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = n == text.size() && std::fclose(f) == 0;
  PMC_CHECK_MSG(ok, "short write to " << path);
}

std::string seed_file_name(uint64_t id) {
  return "seed_" + std::to_string(id) + ".json";
}

std::string entry_to_json(const SeedEntry& e) {
  std::string s = "{\n";
  s += "  \"id\": " + std::to_string(e.id) + ",\n";
  s += "  \"origin\": " + obs::json_quote(e.origin) + ",\n";
  s += "  \"stats\": {\"execs\": " + std::to_string(e.stats.execs) +
       ", \"classes_discovered\": " +
       std::to_string(e.stats.classes_discovered) +
       ", \"schedules_explored\": " +
       std::to_string(e.stats.schedules_explored) +
       ", \"wall_micros\": " + std::to_string(e.stats.wall_micros) +
       ", \"last_new_exec\": " + std::to_string(e.stats.last_new_exec) +
       "},\n";
  s += "  \"program\": " + program_to_json(e.program) + "\n";
  s += "}\n";
  return s;
}

SeedEntry entry_from_json(const JsonValue& v, const std::string& origin) {
  v.require_object(origin, "entry");
  SeedEntry e;
  e.id = v.get("id", origin, "id").as_u64(origin, "id");
  e.origin = v.get("origin", origin, "origin").as_string(origin, "origin");
  const JsonValue& stats = v.get("stats", origin, "stats");
  stats.require_object(origin, "stats");
  const auto stat = [&](const char* key) {
    const std::string field = std::string("stats.") + key;
    return stats.get(key, origin, field).as_u64(origin, field);
  };
  e.stats.execs = stat("execs");
  e.stats.classes_discovered = stat("classes_discovered");
  e.stats.schedules_explored = stat("schedules_explored");
  e.stats.wall_micros = stat("wall_micros");
  e.stats.last_new_exec = stat("last_new_exec");
  e.program = program_from_json(v.get("program", origin, "program"), origin);
  return e;
}

}  // namespace

std::string program_to_json(const GenProgram& prog) {
  const ProgramShape& sh = prog.shape;
  std::string s = "{\"shape\": {\"seed\": " + std::to_string(sh.seed);
  s += ", \"cores\": " + std::to_string(sh.cores);
  s += ", \"objects\": " + std::to_string(sh.objects);
  s += ", \"steps\": " + std::to_string(sh.steps);
  s += ", \"flush_pct\": " + std::to_string(sh.flush_pct);
  s += ", \"barrier_pct\": " + std::to_string(sh.barrier_pct);
  s += ", \"ro_pct\": " + std::to_string(sh.ro_pct);
  s += ", \"nested_pct\": " + std::to_string(sh.nested_pct);
  s += ", \"compute_pct\": " + std::to_string(sh.compute_pct);
  s += ", \"fence_pct\": " + std::to_string(sh.fence_pct);
  s += "}, \"threads\": [";
  for (size_t t = 0; t < prog.threads.size(); ++t) {
    if (t) s += ", ";
    s += '[';
    for (size_t i = 0; i < prog.threads[t].size(); ++i) {
      if (i) s += ", ";
      append_op_json(s, prog.threads[t][i]);
    }
    s += ']';
  }
  s += "]}";
  return s;
}

GenProgram program_from_json(const JsonValue& v, const std::string& origin) {
  v.require_object(origin, "program");
  GenProgram prog;
  const JsonValue& shape = v.get("shape", origin, "program.shape");
  shape.require_object(origin, "program.shape");
  prog.shape.seed = shape.get("seed", origin, "program.shape.seed")
                        .as_u64(origin, "program.shape.seed");
  prog.shape.cores = shape_int(shape, "cores", origin);
  prog.shape.objects = shape_int(shape, "objects", origin);
  prog.shape.steps = shape_int(shape, "steps", origin);
  prog.shape.flush_pct = shape_int(shape, "flush_pct", origin);
  prog.shape.barrier_pct = shape_int(shape, "barrier_pct", origin);
  prog.shape.ro_pct = shape_int(shape, "ro_pct", origin);
  prog.shape.nested_pct = shape_int(shape, "nested_pct", origin);
  prog.shape.compute_pct = shape_int(shape, "compute_pct", origin);
  prog.shape.fence_pct = shape_int(shape, "fence_pct", origin);
  const JsonValue& threads = v.get("threads", origin, "program.threads");
  for (const JsonValue& th : threads.as_array(origin, "program.threads")) {
    std::vector<GenOp> ops;
    const std::string field =
        "program.threads[" + std::to_string(prog.threads.size()) + "]";
    for (const JsonValue& opv : th.as_array(origin, field)) {
      ops.push_back(op_from_json(opv, origin, field));
    }
    prog.threads.push_back(std::move(ops));
  }
  std::string why;
  PMC_CHECK_MSG(well_formed(prog, &why), origin << ":" << v.line
                                                << ": field \"program\" is "
                                                   "not a runnable program: "
                                                << why);
  return prog;
}

uint64_t Corpus::add(std::string origin, GenProgram program) {
  std::string why;
  PMC_CHECK_MSG(well_formed(program, &why),
                "refusing to add a malformed program (" << origin
                                                        << "): " << why);
  SeedEntry e;
  e.id = next_id_++;
  e.origin = std::move(origin);
  e.program = std::move(program);
  entries_.push_back(std::move(e));
  return entries_.back().id;
}

SeedEntry& Corpus::entry(uint64_t id) {
  for (SeedEntry& e : entries_) {
    if (e.id == id) return e;
  }
  PMC_CHECK_MSG(false, "no corpus entry with id " << id);
  std::abort();  // unreachable
}

uint64_t Corpus::note_classes(const std::string& backend,
                              const std::vector<uint64_t>& hashes) {
  std::set<uint64_t>& set = classes_[backend];
  uint64_t fresh = 0;
  for (const uint64_t h : hashes) {
    if (set.insert(h).second) ++fresh;
  }
  return fresh;
}

uint64_t Corpus::total_classes() const {
  uint64_t n = 0;
  for (const auto& [backend, set] : classes_) {
    (void)backend;
    n += set.size();
  }
  return n;
}

void Corpus::record_growth() {
  const uint64_t classes = total_classes();
  if (!growth_.empty() && growth_.back().second == classes) return;
  growth_.emplace_back(total_execs_, classes);
}

void Corpus::save(const std::string& dir) const {
  std::filesystem::create_directories(dir);
  std::string s = "{\n";
  s += "  \"version\": 1,\n";
  s += "  \"next_id\": " + std::to_string(next_id_) + ",\n";
  s += "  \"next_crash\": " + std::to_string(next_crash_) + ",\n";
  s += "  \"total_execs\": " + std::to_string(total_execs_) + ",\n";
  s += "  \"entries\": [";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(entries_[i].id);
  }
  s += "],\n";
  s += "  \"classes\": {";
  bool first_backend = true;
  for (const auto& [backend, set] : classes_) {  // std::map: sorted by name
    if (!first_backend) s += ",";
    first_backend = false;
    s += "\n    " + obs::json_quote(backend) + ": [";
    bool first_hash = true;
    for (const uint64_t h : set) {  // std::set: ascending
      if (!first_hash) s += ", ";
      first_hash = false;
      s += std::to_string(h);
    }
    s += "]";
  }
  s += classes_.empty() ? "},\n" : "\n  },\n";
  s += "  \"growth\": [";
  for (size_t i = 0; i < growth_.size(); ++i) {
    if (i) s += ", ";
    s += "[" + std::to_string(growth_[i].first) + ", " +
         std::to_string(growth_[i].second) + "]";
  }
  s += "]\n}\n";
  const std::filesystem::path base(dir);
  write_text_file((base / "corpus.json").string(), s);
  for (const SeedEntry& e : entries_) {
    write_text_file((base / seed_file_name(e.id)).string(), entry_to_json(e));
  }
}

Corpus Corpus::load(const std::string& dir) {
  const std::filesystem::path base(dir);
  const std::string index_path = (base / "corpus.json").string();
  const JsonValue index = json_parse_file(index_path);
  index.require_object(index_path, "corpus");
  const uint64_t version =
      index.get("version", index_path, "version").as_u64(index_path, "version");
  PMC_CHECK_MSG(version == 1, index_path << ": field \"version\" is "
                                         << version
                                         << ", this build reads version 1");
  Corpus c;
  c.next_id_ =
      index.get("next_id", index_path, "next_id").as_u64(index_path, "next_id");
  c.next_crash_ = index.get("next_crash", index_path, "next_crash")
                      .as_u64(index_path, "next_crash");
  c.total_execs_ = index.get("total_execs", index_path, "total_execs")
                       .as_u64(index_path, "total_execs");
  const JsonValue& classes = index.get("classes", index_path, "classes");
  classes.require_object(index_path, "classes");
  for (const auto& [backend, arr] : classes.members) {
    PMC_CHECK_MSG(rt::find_backend(backend) != nullptr,
                  index_path << ":" << arr.line << ": field \"classes."
                             << backend
                             << "\" names an unregistered back-end (want "
                             << rt::backend_names() << ")");
    std::set<uint64_t>& set = c.classes_[backend];
    const std::string field = "classes." + backend;
    for (const JsonValue& h : arr.as_array(index_path, field)) {
      set.insert(h.as_u64(index_path, field + "[]"));
    }
  }
  for (const JsonValue& sample :
       index.get("growth", index_path, "growth")
           .as_array(index_path, "growth")) {
    const auto& pair = sample.as_array(index_path, "growth[]");
    PMC_CHECK_MSG(pair.size() == 2,
                  index_path << ":" << sample.line
                             << ": field \"growth[]\" must be an "
                                "[execs, classes] pair");
    c.growth_.emplace_back(pair[0].as_u64(index_path, "growth[].execs"),
                           pair[1].as_u64(index_path, "growth[].classes"));
  }
  for (const JsonValue& idv : index.get("entries", index_path, "entries")
                                  .as_array(index_path, "entries")) {
    const uint64_t id = idv.as_u64(index_path, "entries[]");
    PMC_CHECK_MSG(id < c.next_id_, index_path
                                       << ":" << idv.line
                                       << ": field \"entries[]\" id " << id
                                       << " is >= next_id " << c.next_id_);
    const std::string path = (base / seed_file_name(id)).string();
    SeedEntry e = entry_from_json(json_parse_file(path), path);
    PMC_CHECK_MSG(e.id == id, path << ": field \"id\" is " << e.id
                                   << ", the index lists this file as seed "
                                   << id);
    c.entries_.push_back(std::move(e));
  }
  return c;
}

}  // namespace pmc::fuzz
