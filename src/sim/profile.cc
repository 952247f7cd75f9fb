#include "src/sim/profile.h"

#include <cstdlib>
#include <cstring>

namespace tfc {

ProfileSite* Profiler::Site(const std::string& name) {
  return &sites_.try_emplace(name, name).first->second;
}

bool Profiler::ProfileEnabledByDefault() {
  const char* env = std::getenv("TFC_PROFILE");
  if (env == nullptr) {
    return false;
  }
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "") == 0);
}

}  // namespace tfc
