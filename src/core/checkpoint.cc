#include "src/core/checkpoint.h"

#include "src/common/strings.h"
#include "src/config/config_dump.h"
#include "src/config/yaml.h"

namespace sand {

std::string ServiceCheckpoint::ToYaml() const {
  std::string out = "service:\n";
  out += StrFormat("  seed: %llu\n", static_cast<unsigned long long>(seed));
  out += StrFormat("  k_epochs: %d\n", k_epochs);
  out += StrFormat("  total_epochs: %lld\n", static_cast<long long>(total_epochs));
  out += StrFormat("  coordinate: %s\n", coordinate ? "true" : "false");
  if (!task_progress.empty()) {
    out += "  task_progress: [";
    for (size_t i = 0; i < task_progress.size(); ++i) {
      if (i != 0) {
        out += ", ";
      }
      out += StrFormat("%lld", static_cast<long long>(task_progress[i]));
    }
    out += "]\n";
  }
  out += "tasks:\n";
  for (const TaskConfig& task : tasks) {
    // Each task is its own Fig. 9 document, indented under the list.
    std::string dumped = DumpTaskConfigYaml(task);
    out += "- ";
    bool first = true;
    for (const std::string& line : Split(dumped, '\n')) {
      if (line.empty()) {
        continue;
      }
      if (first) {
        out += line + "\n";
        first = false;
      } else {
        out += "  " + line + "\n";
      }
    }
  }
  return out;
}

Result<ServiceCheckpoint> ServiceCheckpoint::FromYaml(std::string_view text) {
  SAND_ASSIGN_OR_RETURN(YamlNode root, ParseYaml(text));
  const YamlNode* service = root.Find("service");
  if (service == nullptr || !service->IsMap()) {
    return DataLoss("checkpoint: missing service section");
  }
  ServiceCheckpoint checkpoint;
  SAND_ASSIGN_OR_RETURN(int64_t seed_value, service->GetInt("seed"));
  checkpoint.seed = static_cast<uint64_t>(seed_value);
  SAND_ASSIGN_OR_RETURN(int64_t k, service->GetInt("k_epochs"));
  checkpoint.k_epochs = static_cast<int>(k);
  SAND_ASSIGN_OR_RETURN(checkpoint.total_epochs, service->GetInt("total_epochs"));
  checkpoint.coordinate = service->GetBoolOr("coordinate", true);
  const YamlNode* progress = service->Find("task_progress");
  if (progress != nullptr && progress->IsList()) {
    for (const YamlNode& item : progress->items()) {
      SAND_ASSIGN_OR_RETURN(int64_t value, item.AsInt());
      checkpoint.task_progress.push_back(value);
    }
  }
  const YamlNode* tasks = root.Find("tasks");
  if (tasks == nullptr || !tasks->IsList()) {
    return DataLoss("checkpoint: missing tasks section");
  }
  for (const YamlNode& task_node : tasks->items()) {
    SAND_ASSIGN_OR_RETURN(TaskConfig task, ParseTaskConfig(task_node));
    checkpoint.tasks.push_back(std::move(task));
  }
  if (!checkpoint.task_progress.empty() &&
      checkpoint.task_progress.size() != checkpoint.tasks.size()) {
    return DataLoss("checkpoint: task_progress/tasks size mismatch");
  }
  return checkpoint;
}

Status ServiceCheckpoint::Save(ObjectStore& store, const std::string& key) const {
  std::string yaml = ToYaml();
  return store.Put(key, std::vector<uint8_t>(yaml.begin(), yaml.end()));
}

Result<ServiceCheckpoint> ServiceCheckpoint::Load(ObjectStore& store, const std::string& key) {
  SAND_ASSIGN_OR_RETURN(SharedBytes bytes, store.GetShared(key));
  return FromYaml(std::string_view(reinterpret_cast<const char*>(bytes->data()), bytes->size()));
}

}  // namespace sand
