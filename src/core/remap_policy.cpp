#include "core/remap_policy.hpp"

#include <stdexcept>

#include "core/baselines.hpp"
#include "core/remap_d.hpp"
#include "core/scenario_policies.hpp"

namespace remapd {

PolicyPtr make_policy(const std::string& name) {
  if (name == "remap-d") return std::make_unique<RemapD>();
  if (name == "static") return std::make_unique<StaticMapping>();
  if (name == "remap-ws") return std::make_unique<RemapWS>();
  if (name == "remap-t-5") return std::make_unique<RemapTopN>(0.05);
  if (name == "remap-t-10") return std::make_unique<RemapTopN>(0.10);
  if (name == "an-code") return std::make_unique<AnCodePolicy>();
  if (name == "none") return std::make_unique<NoProtection>();
  if (name == "refresh") return std::make_unique<DetectAndRefresh>();
  if (name == "xchangr") return std::make_unique<XChangrMapping>();
  if (name == "drop-connect") return std::make_unique<DropConnect>();
  throw std::invalid_argument("make_policy: unknown policy " + name);
}

const std::vector<PolicySpec>& policy_registry() {
  static const std::vector<PolicySpec> specs = {
      {"remap-d", "dynamic task remapping (the paper's contribution)"},
      {"static", "fault-aware placement once at t = 0"},
      {"remap-ws", "top-5% weight-significance remap [12]"},
      {"remap-t-5", "preemptive top-5% |gradient| remap"},
      {"remap-t-10", "preemptive top-10% |gradient| remap"},
      {"an-code", "AN-code ECC output correction [10]"},
      {"none", "unprotected training"},
      {"refresh",
       "detect-and-refresh of transient upsets every epoch "
       "(arXiv:2412.03089)"},
      {"xchangr",
       "alternating line drive flattening the IR-drop gain field "
       "(arXiv:1907.00285)"},
      {"drop-connect",
       "drop-connect training, 5% of weights per epoch (arXiv:2404.15498)"},
  };
  return specs;
}

}  // namespace remapd
