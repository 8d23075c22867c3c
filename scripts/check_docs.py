#!/usr/bin/env python3
"""Docs CI gate (stdlib only).

1. Link check: every relative markdown link in the repo's *.md files must
   resolve to an existing file (anchors are stripped; http(s) links are
   not fetched).
2. Operator-reference completeness: every HCL_* environment variable read
   in src/ (through common/env.h's env_number / env_bool / env_string)
   must appear in README.md's operator table, and every HCL_* row in that
   table must still be read somewhere in src/ — so the table can neither
   rot nor invent knobs. common/env.h is the only file in src/ that may
   call getenv, so no variable can be read around the parser.
3. Bench handbook coverage: every bench/fig*.cpp figure binary and every
   BENCH_*.json artifact a bench emits must be mentioned in
   EXPERIMENTS.md — a new figure or JSON record cannot land undocumented.
4. Bench flag completeness: every --flag a bench binary declares (any
   "--flag" literal in bench/) must appear in README.md's bench flag
   reference table, and every --flag row in that table must still be
   parsed somewhere in bench/ — same no-rot/no-invention contract as
   the env table.
5. Exercised knobs: every HCL_* variable read in src/ must be named by a
   CI leg, test, bench or script (.github/, tests/, bench/, perfbench/,
   scripts/). A knob nothing sets is dead configuration surface: delete
   the read, or exercise it.
6. Thread spawners: no std::thread / std::jthread in src/ outside
   src/sim/. The rank runners there are the only legitimate spawners;
   the NIC, RPC engine and containers run inline on rank threads, so a
   thread anywhere else is a resident cost every Context would pay.
   (std::thread::id and other nested names are fine.)

Exit code 0 = green; nonzero prints each violation on its own line.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Internal docs not shipped as operator-facing documentation.
SKIP_DOCS = {"ISSUE.md", "SNIPPETS.md", "PAPERS.md", "PAPER.md"}

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ENV_READ_RE = re.compile(
    r'env_(?:number|bool|string)\s*(?:<[^<>]*>)?\s*\(\s*"(HCL_[A-Z0-9_]+)"')
GETENV_RE = re.compile(r"\bgetenv\s*\(")
ENV_PARSER = os.path.join("src", "common", "env.h")
TABLE_ENV_RE = re.compile(r"^\|\s*`(HCL_[A-Z0-9_]+)`", re.MULTILINE)
JSON_ARTIFACT_RE = re.compile(r'"(BENCH_[A-Z0-9_]+\.json)"')
BENCH_FLAG_RE = re.compile(r'"(--[a-z][a-z0-9-]*)"')
TABLE_FLAG_RE = re.compile(r"^\|\s*`(--[a-z][a-z0-9-]*)`", re.MULTILINE)
THREAD_SPAWN_RE = re.compile(r"\bstd::j?thread\b(?!\s*::)")
THREAD_SPAWNER_DIR = os.path.join("src", "sim") + os.sep


def markdown_files():
    for name in sorted(os.listdir(ROOT)):
        if name.endswith(".md") and name not in SKIP_DOCS:
            yield name


def check_links(errors):
    for name in markdown_files():
        text = open(os.path.join(ROOT, name), encoding="utf-8").read()
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            if not os.path.exists(os.path.join(ROOT, path)):
                errors.append(f"{name}: broken link -> {target}")


def src_files():
    for dirpath, _, filenames in os.walk(os.path.join(ROOT, "src")):
        for filename in sorted(filenames):
            if filename.endswith((".h", ".cpp", ".cc")):
                path = os.path.join(dirpath, filename)
                yield (os.path.relpath(path, ROOT),
                       open(path, encoding="utf-8").read())


def env_vars_in_src():
    found = set()
    for _, text in src_files():
        found.update(ENV_READ_RE.findall(text))
    return found


def check_env_parser(errors):
    for name, text in src_files():
        if name != ENV_PARSER and GETENV_RE.search(text):
            errors.append(f"{name}: calls getenv; read HCL_* variables "
                          f"through {ENV_PARSER}")


EXERCISE_DIRS = (".github", "tests", "bench", "perfbench", "scripts")


def check_env_exercised(errors):
    texts = []
    for top in EXERCISE_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, top)):
            for filename in sorted(filenames):
                path = os.path.join(dirpath, filename)
                if path == os.path.abspath(__file__):
                    continue
                try:
                    texts.append(open(path, encoding="utf-8").read())
                except (UnicodeDecodeError, OSError):
                    continue
    corpus = "\n".join(texts)
    for var in sorted(env_vars_in_src()):
        if not re.search(r"\b" + var + r"\b", corpus):
            errors.append(
                f"src/: {var} is read, but no CI leg, test, bench or script "
                f"names it")


def check_thread_spawners(errors):
    for name, text in src_files():
        if name.startswith(THREAD_SPAWNER_DIR):
            continue
        for lineno, line in enumerate(text.splitlines(), 1):
            match = THREAD_SPAWN_RE.search(line.split("//", 1)[0])
            if match:
                errors.append(f"{name}:{lineno}: {match.group(0)} outside "
                              f"{THREAD_SPAWNER_DIR}; only the rank runners "
                              f"there may start threads")


def env_vars_in_readme():
    text = open(os.path.join(ROOT, "README.md"), encoding="utf-8").read()
    return set(TABLE_ENV_RE.findall(text))


def check_env_table(errors):
    in_src = env_vars_in_src()
    in_readme = env_vars_in_readme()
    for var in sorted(in_src - in_readme):
        errors.append(
            f"README.md: operator table is missing {var} (read in src/)")
    for var in sorted(in_readme - in_src):
        errors.append(
            f"README.md: operator table lists {var}, but nothing in src/ reads it")


def bench_sources():
    bench_dir = os.path.join(ROOT, "bench")
    for name in sorted(os.listdir(bench_dir)):
        if name.endswith((".cpp", ".h")):
            yield name, open(os.path.join(bench_dir, name),
                             encoding="utf-8").read()


def check_bench_handbook(errors):
    experiments = open(os.path.join(ROOT, "EXPERIMENTS.md"),
                       encoding="utf-8").read()
    for name, text in bench_sources():
        if name.startswith("fig") and name.endswith(".cpp"):
            stem = name[:-len(".cpp")]
            if stem not in experiments:
                errors.append(
                    f"EXPERIMENTS.md: bench/{name} is never mentioned "
                    f"(new figure binary without handbook coverage)")
        for artifact in set(JSON_ARTIFACT_RE.findall(text)):
            if artifact not in experiments:
                errors.append(
                    f"EXPERIMENTS.md: {artifact} (emitted by bench/{name}) "
                    f"is never mentioned")


def check_bench_flag_table(errors):
    in_bench = set()
    for _, text in bench_sources():
        in_bench.update(BENCH_FLAG_RE.findall(text))
    readme = open(os.path.join(ROOT, "README.md"), encoding="utf-8").read()
    in_readme = set(TABLE_FLAG_RE.findall(readme))
    for flag in sorted(in_bench - in_readme):
        errors.append(
            f"README.md: bench flag table is missing {flag} (parsed in bench/)")
    for flag in sorted(in_readme - in_bench):
        errors.append(
            f"README.md: bench flag table lists {flag}, "
            f"but nothing in bench/ parses it")


def main():
    errors = []
    check_links(errors)
    check_env_table(errors)
    check_env_parser(errors)
    check_env_exercised(errors)
    check_bench_handbook(errors)
    check_bench_flag_table(errors)
    check_thread_spawners(errors)
    for error in errors:
        print(error)
    if errors:
        print(f"{len(errors)} docs violation(s)")
        return 1
    print("docs ok: links resolve, operator table matches src/, every "
          "knob is exercised, bench handbook and flag table match bench/, "
          "no thread spawners outside src/sim/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
