package schema

// CheckOracle exposes checkOracle to the external tests.
var CheckOracle = checkOracle
