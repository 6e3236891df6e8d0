package hetcc

// PlatformConfig exposes Config.platformConfig to the external tests, so
// a test that builds a platform by hand maps the observer settings as
// Build does.
var PlatformConfig = Config.platformConfig
