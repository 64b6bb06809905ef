#include "testcheck/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <set>
#include <sstream>
#include <system_error>

#include "dsl/federation_dsl.hpp"
#include "sql/binder.hpp"

namespace cisqp::testcheck {
namespace {

/// Renders one cell as a repro-file literal.
void RenderValue(std::ostringstream& oss, const storage::Value& v) {
  if (v.is_null()) {
    oss << "null";
  } else if (v.is_int64()) {
    oss << v.AsInt64();
  } else if (v.is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
    oss << buf;
    // Guarantee the literal parses back as a double, not an int64.
    if (std::string_view(buf).find_first_of(".eE") == std::string_view::npos) {
      oss << ".0";
    }
  } else {
    oss << '"';
    for (const char c : v.AsString()) {
      if (c == '"' || c == '\\') oss << '\\';
      oss << c;
    }
    oss << '"';
  }
}

/// `token` as a T-typed cell. The whole token must parse and fit T: a
/// corrupted corpus file is a typed error, never a different scenario.
template <typename T>
Result<storage::Value> NumericCell(const std::string& token) {
  T v{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    return InvalidArgumentError("malformed numeric literal '" + token +
                                "' in row");
  }
  return storage::Value(v);
}

/// Parses one repro-file literal from `text` at `pos` (after skipping
/// spaces); advances `pos` past it.
Result<storage::Value> ParseValue(std::string_view text, std::size_t& pos) {
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  if (pos >= text.size()) return InvalidArgumentError("truncated row literal");
  if (text[pos] == '"') {
    std::string out;
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) ++pos;
      out += text[pos++];
    }
    if (pos >= text.size()) return InvalidArgumentError("unterminated string literal");
    ++pos;  // closing quote
    return storage::Value(std::move(out));
  }
  const std::size_t start = pos;
  while (pos < text.size() && text[pos] != ',' && text[pos] != ')') ++pos;
  std::string token(text.substr(start, pos - start));
  while (!token.empty() && std::isspace(static_cast<unsigned char>(token.back()))) {
    token.pop_back();
  }
  if (token == "null") return storage::Value::Null();
  if (token.empty()) return InvalidArgumentError("empty row literal");
  if (token.find_first_of(".eE") != std::string::npos) {
    return NumericCell<double>(token);
  }
  return NumericCell<std::int64_t>(token);
}

bool StartsWithWord(std::string_view line, std::string_view word) {
  return line.size() > word.size() && line.substr(0, word.size()) == word &&
         std::isspace(static_cast<unsigned char>(line[word.size()]));
}

std::string_view Trimmed(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

Result<exec::Cluster> Scenario::MakeCluster() const {
  exec::Cluster cluster(catalog);
  for (catalog::RelationId r = 0; r < catalog.relation_count(); ++r) {
    if (r >= rows.size()) break;
    for (const storage::Row& row : rows[r]) {
      CISQP_RETURN_IF_ERROR(cluster.InsertRow(r, row));
    }
  }
  return cluster;
}

plan::StatsCatalog Scenario::ComputeStats() const {
  auto cluster = MakeCluster();
  CISQP_CHECK_MSG(cluster.ok(), cluster.status().ToString());
  return workload::ComputeStats(*cluster);
}

std::string Scenario::ToReproText() const {
  std::ostringstream oss;
  oss << "# cisqp-fuzz repro v1\n";
  oss << "seed " << seed << "\n";
  oss << dsl::SerializeFederation(catalog, &auths, nullptr);
  for (catalog::RelationId r = 0; r < catalog.relation_count(); ++r) {
    if (r >= rows.size()) break;
    for (const storage::Row& row : rows[r]) {
      oss << "row " << catalog.relation(r).name << " (";
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c != 0) oss << ", ";
        RenderValue(oss, row[c]);
      }
      oss << ");\n";
    }
  }
  oss << "query " << query.ToString(catalog) << "\n";
  return oss.str();
}

Result<Scenario> GenerateScenario(const ScenarioConfig& config,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.seed = seed;
  workload::Federation fed = workload::GenerateFederation(config.federation, rng);
  s.auths = workload::GenerateAuthorizations(fed.catalog, config.authz, rng);
  CISQP_ASSIGN_OR_RETURN(s.query,
                         workload::GenerateQuery(fed.catalog, config.query, rng));
  exec::Cluster cluster(fed.catalog);
  CISQP_RETURN_IF_ERROR(
      workload::PopulateCluster(cluster, fed, config.data, rng));
  s.rows.resize(fed.catalog.relation_count());
  for (catalog::RelationId r = 0; r < fed.catalog.relation_count(); ++r) {
    s.rows[r] = cluster.TableOf(r).rows();
  }
  s.catalog = std::move(fed.catalog);
  return s;
}

Result<Scenario> ParseReproText(std::string_view text) {
  // Split the line-oriented directives off; the rest is federation DSL.
  std::ostringstream dsl_text;
  std::uint64_t seed = 0;
  std::string sql;
  std::vector<std::pair<std::string, storage::Row>> raw_rows;

  std::size_t line_start = 0;
  while (line_start <= text.size()) {
    const std::size_t nl = text.find('\n', line_start);
    const std::string_view raw_line = text.substr(
        line_start, nl == std::string_view::npos ? text.size() - line_start
                                                 : nl - line_start);
    line_start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    const std::string_view line = Trimmed(raw_line);
    if (line.empty()) continue;
    if (StartsWithWord(line, "seed")) {
      const std::string_view token = Trimmed(line.substr(4));
      const char* end = token.data() + token.size();
      const auto [ptr, ec] = std::from_chars(token.data(), end, seed);
      if (ec != std::errc() || ptr != end) {
        return InvalidArgumentError("malformed seed '" + std::string(token) +
                                    "'");
      }
    } else if (StartsWithWord(line, "query")) {
      sql = std::string(Trimmed(line.substr(5)));
    } else if (StartsWithWord(line, "row")) {
      std::string_view rest = Trimmed(line.substr(3));
      const std::size_t open = rest.find('(');
      if (open == std::string_view::npos) {
        return InvalidArgumentError("row directive without '(': " +
                                    std::string(line));
      }
      const std::string relation(Trimmed(rest.substr(0, open)));
      storage::Row row;
      std::size_t pos = open + 1;
      while (true) {
        while (pos < rest.size() &&
               std::isspace(static_cast<unsigned char>(rest[pos]))) {
          ++pos;
        }
        if (pos < rest.size() && rest[pos] == ')') break;
        CISQP_ASSIGN_OR_RETURN(storage::Value v, ParseValue(rest, pos));
        row.push_back(std::move(v));
        while (pos < rest.size() &&
               std::isspace(static_cast<unsigned char>(rest[pos]))) {
          ++pos;
        }
        if (pos < rest.size() && rest[pos] == ',') {
          ++pos;
        } else {
          break;
        }
      }
      if (pos >= rest.size() || rest[pos] != ')') {
        return InvalidArgumentError("row directive without ')': " +
                                    std::string(line));
      }
      raw_rows.emplace_back(relation, std::move(row));
    } else {
      dsl_text << raw_line << "\n";
    }
  }

  if (sql.empty()) return InvalidArgumentError("repro has no query directive");
  CISQP_ASSIGN_OR_RETURN(dsl::ParsedFederation fed,
                         dsl::ParseFederation(dsl_text.str()));
  Scenario s;
  s.seed = seed;
  s.auths = std::move(fed.authorizations);
  s.catalog = std::move(fed.catalog);
  CISQP_ASSIGN_OR_RETURN(s.query, sql::ParseAndBind(s.catalog, sql));
  s.rows.resize(s.catalog.relation_count());
  for (auto& [relation, row] : raw_rows) {
    CISQP_ASSIGN_OR_RETURN(const catalog::RelationId rel,
                           s.catalog.FindRelation(relation));
    if (row.size() != s.catalog.relation(rel).attributes.size()) {
      return InvalidArgumentError("row arity mismatch for relation " + relation);
    }
    s.rows[rel].push_back(std::move(row));
  }
  return s;
}

Result<Scenario> ApplyEdit(const Scenario& s, const ScenarioEdit& edit) {
  const catalog::Catalog& old_cat = s.catalog;
  const auto relation_dropped = [&](catalog::RelationId r) {
    return edit.drop_relations.Contains(r);
  };
  const auto attribute_dropped = [&](catalog::AttributeId a) {
    return edit.drop_attributes.Contains(a) ||
           relation_dropped(old_cat.attribute(a).relation);
  };

  Scenario out;
  out.seed = s.seed;

  // Rebuild the catalog: surviving servers/relations/attributes keep their
  // names; ids renumber. Servers survive unconditionally (an unused server
  // is itself scenario content — it may hold grants).
  for (catalog::ServerId sv = 0; sv < old_cat.server_count(); ++sv) {
    CISQP_RETURN_IF_ERROR(out.catalog.AddServer(old_cat.server(sv).name).status());
  }
  for (catalog::RelationId r = 0; r < old_cat.relation_count(); ++r) {
    if (relation_dropped(r)) continue;
    const catalog::RelationDef& rel = old_cat.relation(r);
    std::vector<catalog::AttributeSpec> specs;
    std::vector<std::string> key;
    for (catalog::AttributeId a : rel.attributes) {
      if (attribute_dropped(a)) continue;
      const catalog::AttributeDef& attr = old_cat.attribute(a);
      specs.push_back(catalog::AttributeSpec{attr.name, attr.type});
      const bool was_key = std::find(rel.primary_key.begin(),
                                     rel.primary_key.end(),
                                     a) != rel.primary_key.end();
      if (was_key) key.push_back(attr.name);
    }
    if (specs.empty()) {
      return InvalidArgumentError("relation '" + rel.name +
                                  "' would lose all attributes");
    }
    if (key.empty()) key.push_back(specs.front().name);
    CISQP_RETURN_IF_ERROR(
        out.catalog.AddRelation(rel.name, rel.server, specs, key).status());
  }

  // Old attribute id -> new attribute id, by name.
  const auto remap = [&](catalog::AttributeId a) -> Result<catalog::AttributeId> {
    if (attribute_dropped(a)) {
      return NotFoundError("attribute '" + old_cat.attribute(a).name +
                           "' was dropped");
    }
    return out.catalog.FindAttribute(old_cat.attribute(a).name);
  };

  for (const catalog::JoinEdge& e : old_cat.join_edges()) {
    if (attribute_dropped(e.left) || attribute_dropped(e.right)) continue;
    CISQP_ASSIGN_OR_RETURN(const catalog::AttributeId l, remap(e.left));
    CISQP_ASSIGN_OR_RETURN(const catalog::AttributeId r, remap(e.right));
    const Status status = out.catalog.AddJoinEdge(l, r);
    if (!status.ok() && status.code() != StatusCode::kAlreadyExists) {
      return status;
    }
  }

  // Rebuild the policy. A grant that loses a path endpoint, all its
  // attributes, or its Def. 3.1 validity is dropped whole — the minimizer
  // re-checks the candidate anyway.
  const std::vector<authz::Authorization> old_grants = s.auths.All();
  const std::set<std::size_t> dropped_grants(edit.drop_grants.begin(),
                                             edit.drop_grants.end());
  for (std::size_t i = 0; i < old_grants.size(); ++i) {
    if (dropped_grants.count(i) != 0) continue;
    const authz::Authorization& g = old_grants[i];
    authz::Authorization mapped;
    mapped.server = g.server;
    bool keep = true;
    for (IdSet::value_type a : g.attributes) {
      if (attribute_dropped(static_cast<catalog::AttributeId>(a))) continue;
      CISQP_ASSIGN_OR_RETURN(const catalog::AttributeId na,
                             remap(static_cast<catalog::AttributeId>(a)));
      mapped.attributes.Insert(na);
    }
    std::vector<authz::JoinAtom> atoms;
    for (const authz::JoinAtom& atom : g.path.atoms()) {
      if (attribute_dropped(atom.first) || attribute_dropped(atom.second)) {
        keep = false;
        break;
      }
      CISQP_ASSIGN_OR_RETURN(const catalog::AttributeId na, remap(atom.first));
      CISQP_ASSIGN_OR_RETURN(const catalog::AttributeId nb, remap(atom.second));
      atoms.push_back(authz::JoinAtom::Make(na, nb));
    }
    if (!keep || mapped.attributes.empty()) continue;
    mapped.path = authz::JoinPath::FromAtoms(std::move(atoms));
    const Status status = out.auths.Add(out.catalog, std::move(mapped));
    if (!status.ok() && status.code() != StatusCode::kAlreadyExists &&
        status.code() != StatusCode::kInvalidArgument) {
      return status;
    }
  }

  // Rebuild the query.
  const std::set<std::size_t> dropped_steps(edit.drop_join_steps.begin(),
                                            edit.drop_join_steps.end());
  const std::set<std::size_t> dropped_select(edit.drop_select.begin(),
                                             edit.drop_select.end());
  const std::set<std::size_t> dropped_where(edit.drop_where.begin(),
                                            edit.drop_where.end());
  out.query.distinct = s.query.distinct;
  if (relation_dropped(s.query.first_relation)) {
    return InvalidArgumentError("query's first relation was dropped");
  }
  CISQP_ASSIGN_OR_RETURN(
      out.query.first_relation,
      out.catalog.FindRelation(old_cat.relation(s.query.first_relation).name));
  IdSet query_relations{s.query.first_relation};
  for (std::size_t i = 0; i < s.query.joins.size(); ++i) {
    if (dropped_steps.count(i) != 0) continue;
    const plan::JoinStep& step = s.query.joins[i];
    if (relation_dropped(step.relation)) {
      return InvalidArgumentError("query references a dropped relation");
    }
    plan::JoinStep mapped;
    CISQP_ASSIGN_OR_RETURN(
        mapped.relation,
        out.catalog.FindRelation(old_cat.relation(step.relation).name));
    for (const algebra::EquiJoinAtom& atom : step.atoms) {
      // Atoms whose left side joined against a dropped step's relation go
      // away with that step; atoms on dropped attributes go away too.
      if (attribute_dropped(atom.left) || attribute_dropped(atom.right)) {
        continue;
      }
      if (!query_relations.Contains(old_cat.attribute(atom.left).relation)) {
        continue;
      }
      CISQP_ASSIGN_OR_RETURN(const catalog::AttributeId l, remap(atom.left));
      CISQP_ASSIGN_OR_RETURN(const catalog::AttributeId r, remap(atom.right));
      mapped.atoms.push_back(algebra::EquiJoinAtom{l, r});
    }
    if (mapped.atoms.empty()) {
      return InvalidArgumentError("join step would lose all atoms");
    }
    out.query.joins.push_back(std::move(mapped));
    query_relations.Insert(step.relation);
  }
  for (std::size_t i = 0; i < s.query.select_list.size(); ++i) {
    if (dropped_select.count(i) != 0) continue;
    if (attribute_dropped(s.query.select_list[i])) continue;
    CISQP_ASSIGN_OR_RETURN(const catalog::AttributeId a,
                           remap(s.query.select_list[i]));
    out.query.select_list.push_back(a);
  }
  std::vector<algebra::Comparison> conjuncts;
  const std::vector<algebra::Comparison>& old_conjuncts =
      s.query.where.conjuncts();
  for (std::size_t i = 0; i < old_conjuncts.size(); ++i) {
    if (dropped_where.count(i) != 0) continue;
    const algebra::Comparison& c = old_conjuncts[i];
    if (attribute_dropped(c.lhs)) continue;
    algebra::Comparison mapped = c;
    CISQP_ASSIGN_OR_RETURN(mapped.lhs, remap(c.lhs));
    if (c.rhs_is_attribute()) {
      const auto rhs = std::get<catalog::AttributeId>(c.rhs);
      if (attribute_dropped(rhs)) continue;
      CISQP_ASSIGN_OR_RETURN(const catalog::AttributeId nr, remap(rhs));
      mapped.rhs = nr;
    }
    conjuncts.push_back(std::move(mapped));
  }
  out.query.where = algebra::Predicate(std::move(conjuncts));
  CISQP_RETURN_IF_ERROR(out.query.Validate(out.catalog));

  // Rebuild the data, dropping removed columns.
  out.rows.resize(out.catalog.relation_count());
  for (catalog::RelationId r = 0; r < old_cat.relation_count(); ++r) {
    if (relation_dropped(r) || r >= s.rows.size()) continue;
    CISQP_ASSIGN_OR_RETURN(const catalog::RelationId nr,
                           out.catalog.FindRelation(old_cat.relation(r).name));
    std::vector<std::size_t> kept_columns;
    const std::vector<catalog::AttributeId>& attrs =
        old_cat.relation(r).attributes;
    for (std::size_t c = 0; c < attrs.size(); ++c) {
      if (!attribute_dropped(attrs[c])) kept_columns.push_back(c);
    }
    for (std::size_t i = 0; i < s.rows[r].size(); ++i) {
      if (edit.halve_rows && (i % 2) != 0) continue;
      storage::Row row;
      row.reserve(kept_columns.size());
      for (const std::size_t c : kept_columns) row.push_back(s.rows[r][i][c]);
      out.rows[nr].push_back(std::move(row));
    }
  }
  return out;
}

Result<Scenario> CloneScenario(const Scenario& s) {
  return ApplyEdit(s, ScenarioEdit{});
}

}  // namespace cisqp::testcheck
