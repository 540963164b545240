/**
 * @file
 * The serving protocol's JSON names: the parser lives in common/json.h
 * and is shared with every other reader in the repository.
 */

#ifndef CHASON_SERVE_JSON_H_
#define CHASON_SERVE_JSON_H_

#include "common/json.h"

namespace chason {
namespace serve {

using JsonValue = common::JsonValue;
using common::parseJson;

} // namespace serve
} // namespace chason

#endif // CHASON_SERVE_JSON_H_
