#include "finser/geom/aabb.hpp"

#include <algorithm>

namespace finser::geom {

void Aabb::expand(const Aabb& o) {
  lo.x = std::min(lo.x, o.lo.x);
  lo.y = std::min(lo.y, o.lo.y);
  lo.z = std::min(lo.z, o.lo.z);
  hi.x = std::max(hi.x, o.hi.x);
  hi.y = std::max(hi.y, o.hi.y);
  hi.z = std::max(hi.z, o.hi.z);
}

}  // namespace finser::geom
