"""Uplink receiver benchmark (see README.md)."""
