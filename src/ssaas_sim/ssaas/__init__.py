"""Reference application: domain stores and service nodes."""
