#include "workload/medical.hpp"

#include <string>
#include <vector>

namespace cisqp::workload {

catalog::Catalog MedicalScenario::BuildCatalog() {
  using catalog::AttributeSpec;
  using catalog::ValueType;
  catalog::Catalog cat;
  const catalog::ServerId si = cat.AddServer("S_I").value();
  const catalog::ServerId sh = cat.AddServer("S_H").value();
  const catalog::ServerId sn = cat.AddServer("S_N").value();
  const catalog::ServerId sd = cat.AddServer("S_D").value();

  CISQP_CHECK(cat.AddRelation("Insurance", si,
                              {AttributeSpec{"Holder", ValueType::kInt64},
                               AttributeSpec{"Plan", ValueType::kString}},
                              {"Holder"})
                  .ok());
  CISQP_CHECK(cat.AddRelation("Hospital", sh,
                              {AttributeSpec{"Patient", ValueType::kInt64},
                               AttributeSpec{"Disease", ValueType::kString},
                               AttributeSpec{"Physician", ValueType::kString}},
                              {"Patient"})
                  .ok());
  CISQP_CHECK(cat.AddRelation("Nat_registry", sn,
                              {AttributeSpec{"Citizen", ValueType::kInt64},
                               AttributeSpec{"HealthAid", ValueType::kString}},
                              {"Citizen"})
                  .ok());
  CISQP_CHECK(cat.AddRelation("Disease_list", sd,
                              {AttributeSpec{"Illness", ValueType::kString},
                               AttributeSpec{"Treatment", ValueType::kString}},
                              {"Illness"})
                  .ok());

  CISQP_CHECK(cat.AddJoinEdge("Holder", "Patient").ok());
  CISQP_CHECK(cat.AddJoinEdge("Holder", "Citizen").ok());
  CISQP_CHECK(cat.AddJoinEdge("Patient", "Citizen").ok());
  CISQP_CHECK(cat.AddJoinEdge("Disease", "Illness").ok());
  return cat;
}

authz::AuthorizationSet MedicalScenario::BuildAuthorizations(
    const catalog::Catalog& cat) {
  authz::AuthorizationSet auths;
  using Path = std::vector<std::pair<std::string, std::string>>;
  const auto add = [&](std::string_view server,
                       const std::vector<std::string>& attrs, const Path& path) {
    CISQP_CHECK_MSG(auths.Add(cat, server, attrs, path).ok(),
                    "Fig. 3 authorization failed to install");
  };

  // Fig. 3, rules 1-15 in order.
  add("S_I", {"Holder", "Plan"}, {});
  add("S_I", {"Holder", "Plan", "Patient", "Physician"}, {{"Holder", "Patient"}});
  add("S_I", {"Holder", "Plan", "Treatment"},
      {{"Holder", "Patient"}, {"Disease", "Illness"}});
  add("S_H", {"Patient", "Disease", "Physician"}, {});
  add("S_H", {"Patient", "Disease", "Physician", "Holder", "Plan"},
      {{"Patient", "Holder"}});
  add("S_H", {"Patient", "Disease", "Physician", "Citizen", "HealthAid"},
      {{"Patient", "Citizen"}});
  add("S_H",
      {"Patient", "Disease", "Physician", "Holder", "Plan", "Citizen", "HealthAid"},
      {{"Patient", "Citizen"}, {"Citizen", "Holder"}});
  add("S_N", {"Citizen", "HealthAid"}, {});
  add("S_N", {"Holder", "Plan"}, {});
  add("S_N", {"Patient", "Disease"}, {});
  add("S_N", {"Citizen", "HealthAid", "Patient", "Disease"},
      {{"Citizen", "Patient"}});
  add("S_N", {"Citizen", "HealthAid", "Holder", "Plan"}, {{"Citizen", "Holder"}});
  add("S_N", {"Patient", "Disease", "Holder", "Plan"}, {{"Patient", "Holder"}});
  add("S_N", {"Citizen", "HealthAid", "Patient", "Disease", "Holder", "Plan"},
      {{"Citizen", "Patient"}, {"Citizen", "Holder"}});
  add("S_D", {"Illness", "Treatment"}, {});
  return auths;
}

Status MedicalScenario::PopulateCluster(exec::Cluster& cluster,
                                        const DataConfig& config, Rng& rng) {
  const catalog::Catalog& cat = cluster.catalog();
  CISQP_ASSIGN_OR_RETURN(catalog::RelationId insurance, cat.FindRelation("Insurance"));
  CISQP_ASSIGN_OR_RETURN(catalog::RelationId hospital, cat.FindRelation("Hospital"));
  CISQP_ASSIGN_OR_RETURN(catalog::RelationId registry, cat.FindRelation("Nat_registry"));
  CISQP_ASSIGN_OR_RETURN(catalog::RelationId diseases, cat.FindRelation("Disease_list"));

  static const char* kPlans[] = {"bronze", "silver", "gold", "platinum"};
  static const char* kAids[] = {"none", "partial", "full"};

  std::vector<std::string> disease_names;
  disease_names.reserve(config.diseases);
  for (std::size_t d = 0; d < config.diseases; ++d) {
    disease_names.push_back("disease_" + std::to_string(d));
    CISQP_RETURN_IF_ERROR(cluster.InsertRow(
        diseases, {storage::Value(disease_names.back()),
                   storage::Value("treatment_" + std::to_string(d))}));
  }

  for (std::size_t c = 0; c < config.citizens; ++c) {
    const auto id = static_cast<std::int64_t>(c);
    CISQP_RETURN_IF_ERROR(cluster.InsertRow(
        registry, {storage::Value(id),
                   storage::Value(std::string(kAids[rng.UniformIndex(3)]))}));
    if (rng.Chance(config.hospitalized_fraction)) {
      CISQP_RETURN_IF_ERROR(cluster.InsertRow(
          hospital,
          {storage::Value(id),
           storage::Value(disease_names[rng.UniformIndex(disease_names.size())]),
           storage::Value("dr_" + std::to_string(rng.UniformIndex(20)))}));
    }
    if (rng.Chance(config.insured_fraction)) {
      CISQP_RETURN_IF_ERROR(cluster.InsertRow(
          insurance, {storage::Value(id),
                      storage::Value(std::string(kPlans[rng.UniformIndex(4)]))}));
    }
  }
  return Status::Ok();
}

std::vector<MedicalScenario::NamedQuery> MedicalScenario::WorkloadQueries() {
  return {
      {"paper_ex2.2", std::string(kPaperQuery)},
      {"registry_scan", "SELECT Citizen, HealthAid FROM Nat_registry"},
      {"plans_with_aid",
       "SELECT Holder, Plan, HealthAid FROM Insurance JOIN Nat_registry "
       "ON Holder = Citizen"},
      {"physicians_for_disease",
       "SELECT Patient, Physician FROM Hospital WHERE Disease = 'disease_3'"},
      {"treatments_per_plan",
       "SELECT Plan, Treatment FROM Insurance JOIN Hospital ON Holder = Patient "
       "JOIN Disease_list ON Disease = Illness"},
      {"sec3.2_denied",
       "SELECT Illness, Treatment FROM Disease_list JOIN Hospital "
       "ON Illness = Disease"},
      {"aid_of_patients",
       "SELECT Patient, Disease, HealthAid FROM Hospital JOIN Nat_registry "
       "ON Patient = Citizen"},
      {"insured_patients",
       "SELECT Patient, Plan FROM Insurance JOIN Hospital ON Holder = Patient"},
      {"registry_hospital_sweep",
       "SELECT Citizen, HealthAid, Patient, Disease FROM Nat_registry "
       "JOIN Hospital ON Citizen = Patient"},
  };
}

plan::StatsCatalog MedicalScenario::ComputeStats(const exec::Cluster& cluster) {
  plan::StatsCatalog stats;
  const catalog::Catalog& cat = cluster.catalog();
  for (catalog::RelationId rel = 0; rel < cat.relation_count(); ++rel) {
    stats.Set(rel, plan::StatsCatalog::FromTable(*cluster.ColumnarOf(rel)));
  }
  return stats;
}

}  // namespace cisqp::workload
