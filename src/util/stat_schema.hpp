/**
 * @file
 * The closed stat namespaces (DESIGN.md §5.11 and §5.23): the one
 * declaration, with its kind, of every name an exporter may create
 * under a closed prefix (`serve.`, `distill.`, `health.`, ...) or the
 * closed infix `.compress.int8.`. StatRegistry checks every name here
 * when it creates it. Names outside the closed namespaces are free,
 * subject only to the segment rule.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/stat_registry.hpp"

namespace voyager {

/**
 * Check a name StatRegistry is about to create as `kind`: every dotted
 * segment is a non-empty run of `[a-z0-9_+-]`, and a name under a
 * closed namespace is declared there with this kind.
 * @throws std::runtime_error naming the stat and its namespace.
 */
void check_new_stat(const std::string &name, StatKind kind);

/**
 * Every name the closed prefix namespaces declare outright, with its
 * kind, sorted. Declarations with a digit wildcard (the distill
 * frontier cells) and the infix namespace are left out.
 */
std::vector<std::pair<std::string, StatKind>> declared_closed_stats();

}  // namespace voyager
