#!/usr/bin/env python3
"""Fails when a function under src/ ran in no binary of a coverage build.

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        "-DCMAKE_CXX_FLAGS=--coverage -fkeep-inline-functions -ffunction-sections" \\
        "-DCMAKE_EXE_LINKER_FLAGS=--coverage -Wl,--gc-sections"
    cmake --build build-cov -j && (cd build-cov && ctest -j)
    tools/ci_smoke.sh build-cov   # and whatever else should count
    python3 tools/check_coverage.py --build-dir build-cov

Runs gcov (which ships with g++) over every .gcno under the build
directory, so counts from the library objects, the tests, the examples and
the benches all merge. A *site* is one function definition in a file
under src/, keyed by (file, line, column): every template instantiation
and every inline copy of it counts toward the same site, and the site ran
when any of them ran. Every site that never ran fails the check: run it
or delete it.

g++ emits no code, and so no gcov record, for an inline function that no
translation unit calls; -fkeep-inline-functions makes it emit every inline
function, so an uncalled inline member counts as unrun. Some of the inline
functions of libstdc++ and GTest that it then emits call symbols their
shared libraries do not export; -ffunction-sections with --gc-sections
lets the linker drop every uncalled function before it resolves them.
A template member is instantiated only where something uses it, so an
unused member of a class template, or a function template nothing
instantiates, still leaves no record and stays invisible to this check.
The check skips `= default` definitions: they hold no code of ours, and
g++ initializes the members of a defaulted default constructor at each
call site instead of calling it, so the record the flag emits for one
reads 0 even where the class is constructed.

Exit status: 0 when every site ran, 1 when some did not, 2 when there is
nothing to check (no coverage data, gcov missing, no site under src/).
"""
import argparse
import json
import os
import re
import subprocess
import sys

BATCH = 64  # .gcno files per gcov invocation
DEFAULTED = re.compile(r"=\s*default\s*;")


def find_gcno(build_dir):
    found = []
    for root, _, files in os.walk(build_dir):
        found.extend(os.path.join(root, name) for name in files
                     if name.endswith(".gcno"))
    return sorted(found)


def gcov_documents(gcno_files, cwd):
    """Yields gcov's JSON document for each object file (one per line)."""
    for begin in range(0, len(gcno_files), BATCH):
        batch = gcno_files[begin:begin + BATCH]
        done = subprocess.run(
            ["gcov", "--json-format", "--stdout"] + batch, cwd=cwd,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            raise SystemExit(2)
        for line in done.stdout.decode().splitlines():
            if line.strip():
                yield json.loads(line)


def is_defaulted(path, function, sources):
    """True when the function's definition is `= default`."""
    if path not in sources:
        with open(path, encoding="utf-8") as handle:
            sources[path] = handle.read().splitlines()
    text = " ".join(
        sources[path][function["start_line"] - 1:function["end_line"]])
    return DEFAULTED.search(text) is not None


def collect_sites(documents, source_root):
    """Maps (file, line, column) -> [ran, {demangled names}]."""
    src_prefix = os.path.join(source_root, "src") + os.sep
    sites = {}
    sources = {}
    for document in documents:
        cwd = document.get("current_working_directory", "")
        for entry in document.get("files", []):
            path = os.path.realpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(src_prefix):
                continue
            rel = os.path.relpath(path, source_root)
            for function in entry.get("functions", []):
                if is_defaulted(path, function, sources):
                    continue
                key = (rel, function["start_line"], function["start_column"])
                site = sites.setdefault(key, [False, set()])
                site[0] = site[0] or function["execution_count"] > 0
                site[1].add(function["demangled_name"])
    return sites


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", required=True)
    args = parser.parse_args()

    source_root = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
    build_dir = os.path.realpath(args.build_dir)

    gcno_files = find_gcno(build_dir)
    if not gcno_files:
        print(f"check_coverage: no .gcno files under {build_dir} "
              "(configure with --coverage)", file=sys.stderr)
        return 2
    try:
        sites = collect_sites(gcov_documents(gcno_files, build_dir),
                              source_root)
    except FileNotFoundError:
        print("check_coverage: cannot run gcov", file=sys.stderr)
        return 2
    if not sites:
        print(f"check_coverage: no function site under {source_root}/src "
              f"in the coverage data of {build_dir}", file=sys.stderr)
        return 2

    unrun = sorted((key, sorted(names)[0])
                   for key, (ran, names) in sites.items() if not ran)
    print(f"check_coverage: {len(sites)} function sites under src/, "
          f"{len(unrun)} never ran")
    for (path, line, _), name in unrun:
        print(f"{path}:{line}: {name} never ran (run it or delete it)")
    if unrun:
        print("check_coverage: FAIL")
        return 1
    print("check_coverage: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
