# One engine path: swarm::SwarmRuntime is the only code in src/ and
# bench/ that wires an engine to a network. Fails when any other file
# declares or constructs a sim::Scheduler or a net::Network; the engine
# (src/sim/), the network (src/net/) and the runtime (src/swarm/) are
# exempt. References and pointers are fine.
#
#   cmake -DROOT=<source dir> -P one_engine_path.cmake
if(NOT ROOT)
  message(FATAL_ERROR
    "usage: cmake -DROOT=<source dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(GLOB_RECURSE sources RELATIVE "${ROOT}"
  "${ROOT}/src/*.cpp" "${ROOT}/src/*.hpp"
  "${ROOT}/bench/*.cpp" "${ROOT}/bench/*.hpp")
list(FILTER sources EXCLUDE REGEX "^src/(sim|net|swarm)/")
list(SORT sources)

# The type followed by a name (`sim::Scheduler sched;`), a constructor
# call or brace (`net::Network(...)`), or a closing template argument
# (`std::make_unique<net::Network>`).
set(owning "(sim::Scheduler|net::Network)([ \t]+[A-Za-z_]|[ \t]*[({>])")
set(offenders "")
foreach(rel IN LISTS sources)
  file(STRINGS "${ROOT}/${rel}" lines)
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "//.*" "" code "${line}")
    if(code MATCHES "${owning}")
      string(STRIP "${code}" code)
      string(APPEND offenders "\n  ${rel}: ${code}")
    endif()
  endforeach()
endforeach()

if(offenders)
  message(FATAL_ERROR
    "a private engine/network pair outside the swarm runtime; build the "
    "component on swarm::SwarmRuntime instead:${offenders}")
endif()
list(LENGTH sources scanned)
message(STATUS "one engine path: ${scanned} files under src/ and bench/ clean")
