"""The names of the verify suites, in the order they run.  This module
imports nothing, so the command-line parser can offer the names without
loading the suites and numpy."""

SUITES = ("classic", "section3", "baserecur", "formulas", "plane", "parity")
